import pytest

import hopf_partial
from hopf_partial.demos import ALL_OPS, DEMOS, demo_suite


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_each_demo_passes(name):
    fn, ops = DEMOS[name]
    ok, details = fn()
    assert ok, details
    assert ops


def test_registry_covers_every_operation():
    exported = {f"{obj.__module__.split('.')[-1]}.{name}"
                for name, obj in vars(hopf_partial).items()
                if callable(obj) and not isinstance(obj, type)}
    assert {"hopf.builtin", "partial.check_partial_rep",
            "dilation.standard_dilation"} <= exported
    assert ALL_OPS == exported
    covered = {op for _, ops in DEMOS.values() for op in ops}
    assert sorted(exported - covered) == []
    assert sorted(covered - exported) == []


def test_suite_aggregates_and_reports_coverage():
    result = demo_suite(["linalg-kernels", "hopf-builtins"])
    assert result["ok"] and len(result["demos"]) == 2
    assert "coverage" not in result


def test_suite_rejects_unknown_names():
    with pytest.raises(KeyError):
        demo_suite(["no-such-demo"])
