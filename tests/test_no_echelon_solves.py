"""No elimination against an echelon basis, and t pi(e_i) built once.

Coordinates in a `Subspace`'s reduced echelon basis are the rows of the
right-hand side at the basis' pivots, checked by one product
(`linalg.echelon_coords`), so no `solve_matrix` call may take the
transpose of such a basis as its left side.  A left side whose transpose
merely happens to be in reduced echelon form is allowed: the pivot-column
basis of im t often is, and so is the identity that `inverse` solves
against.  So the run-time pin follows
where each left side came from: it records every `Subspace` built and
every transpose taken of one's basis, and fails on a `solve_matrix` call
whose left side is one of those transposes.

A second pin counts the products t pi(e_i) over one standard dilation,
its check, its restriction and is_minimal: the family is memoized on the
projected module, so each of the d products is taken once.
"""

import sys

import pytest

from hopf_partial import actions as ac
from hopf_partial import dilation as dl
from hopf_partial import hopf as hp
from hopf_partial import linalg as la
from hopf_partial import projection as pj
from hopf_partial.demos import scalar_algebra, shipped_partial_algebras

import gen


def echelon_solves(monkeypatch):
    """The left sides of the solve_matrix calls that transpose an echelon
    basis, recorded from now on."""
    bases, transposes, found = [], [], []
    init, transpose, solve = la.Subspace.__init__, la.Mat.transpose, la.solve_matrix

    def recording_init(self, ambient_dim, basis):
        init(self, ambient_dim, basis)
        bases.append(basis)

    def recording_transpose(m):
        out = transpose(m)
        if any(m is b for b in bases):
            transposes.append(out)
        return out

    def checked_solve(a, b):
        if any(a is x for x in transposes):
            found.append(a)
        return solve(a, b)

    monkeypatch.setattr(la.Subspace, "__init__", recording_init)
    monkeypatch.setattr(la.Mat, "transpose", recording_transpose)
    for name, module in list(sys.modules.items()):
        if (name == "hopf_partial" or name.startswith("hopf_partial.")) \
                and getattr(module, "solve_matrix", None) is solve:
            monkeypatch.setattr(module, "solve_matrix", checked_solve)
    dl.standard_dilation.cache_clear()
    return found


def round_trips(name):
    r = gen.rng(f"no-echelon-solves-{name}")
    for dim in range(5):
        m = gen.random_builtin_partial(r, name, dim)
        dil = dl.standard_dilation(m)
        assert dl.check_dilation(dil).ok
        pj.restrict(dil.projected)


@pytest.mark.parametrize("name", ["kS3", "kC2-dual"])
def test_the_round_trip_solves_against_no_echelon_basis(monkeypatch, name):
    found = echelon_solves(monkeypatch)
    round_trips(name)
    assert found == []


def algebras():
    """The shipped algebras and three over kS3: on one point, e_g acting by
    the indicator of a subgroup, of order 3, of order 2, and the whole group."""
    ks3 = hp.builtin("kS3")
    out = dict(shipped_partial_algebras())
    for label, values in (("order-3", [1, 0, 0, 0, 1, 1]), ("order-2", [1, 1, 0, 0, 0, 0]),
                          ("counit", ks3.counit)):
        out[f"kS3-{label}"] = scalar_algebra(ks3, values)
    return out


@pytest.mark.parametrize("name", list(algebras()))
def test_algebra_constructions_solve_against_no_echelon_basis(monkeypatch, name):
    alg = algebras()[name]
    assert ac.check_partial_action(alg).ok
    found = echelon_solves(monkeypatch)
    ac.globalize(alg)
    ac.partial_smash(alg)
    assert found == []


def test_the_pin_catches_a_solve_against_an_echelon_basis(monkeypatch):
    found = echelon_solves(monkeypatch)
    sub = la.column_space(la.Mat([[1, 0], [2, 0], [0, 3]]))
    incl = sub.basis.transpose()
    assert la.solve_matrix(incl, incl) is not None
    assert found == [incl]
    # an equal matrix of another origin is not flagged
    la.solve_matrix(la.Mat([[1, 0], [2, 0], [0, 1]]), incl)
    assert found == [incl]


def test_t_pi_is_built_once_per_projected_module(monkeypatch):
    m = gen.random_builtin_partial(gen.rng("t-pi-once"), "kS3", 3)
    products = []
    original = la.Mat.__mul__

    def recorded(a, b):
        products.append((a, b))
        return original(a, b)

    monkeypatch.setattr(la.Mat, "__mul__", recorded)
    dl.standard_dilation.cache_clear()
    dil = dl.standard_dilation(m)
    assert dl.check_dilation(dil).ok
    pj.restrict(dil.projected)
    assert pj.is_minimal(dil.projected)
    t, pis = dil.projected.t, dil.projected.module.pi
    assert sum(a is t and any(b is q for q in pis) for a, b in products) == len(pis)
