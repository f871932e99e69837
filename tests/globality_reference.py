"""The globality tests on the full deviation table, kept as oracles.

The library proves that pi is an algebra map on the block rows of a
generating set of H (`partial._algebra_generators`): pi(1) = I, and
pi(e_g) pi(e_s) = pi(e_g e_s) for every generator g and basis index s.
These are the forms it replaced, which read every block
D(e_i, e_j) = pi(e_i) pi(e_j) - pi(e_i e_j) of the d n x d n table
vstack(pi) hstack(pi) minus the "mult" Sweedler grid of pi.
"""

from hopf_partial import hopf as hp
from hopf_partial import partial as pm
from hopf_partial.linalg import Mat, _col, hstack, vstack
from hopf_partial.reports import require


def deviation_table(m):
    """The table whose block (i, j) is D(e_i, e_j), built afresh."""
    return vstack(m.pi) * hstack(m.pi) - hp.sweedler_grid(m.hopf, m.dim, [("mult", m.pi)])


def is_algebra_map(m):
    """pi respects the unit and the products of all basis pairs."""
    if hp.mult_by(m.pi, _col(m.hopf.unit))[0] != Mat.identity(m.dim):
        return False
    return deviation_table(m).is_zero()


def is_global(m):
    """The epsilon condition, then every deviation re-checked."""
    ident = Mat.identity(m.dim)
    if any(eps != ident.scale(c)
           for eps, c in zip(pm.twisted_conjugates(m), m.hopf.counit)):
        return False
    require(deviation_table(m).is_zero(),
            "epsilon condition holds but pi is not multiplicative; "
            "input is not a valid partial module")
    return True
