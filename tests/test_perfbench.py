"""The benchmark harness in ``perfbench/`` drives carnot from outside: its
tracer imports every layer module and wraps their public functions, and its
setup calls ``carnot.fields.field_coefficients`` by attribute.  This keeps
the package and the harness in step."""

from pathlib import Path

import carnot

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_wraps_setup(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    import workloads

    original = carnot.fields.field_coefficients
    t = tracer.Tracer()
    t.install()
    try:
        assert carnot.fields.field_coefficients is not original
        descs, fns, plan = workloads.setup(0)
    finally:
        t.uninstall()
    assert carnot.fields.field_coefficients is original
    assert set(descs) == set(workloads.BUILTINS) | {workloads.FILIFORM}
    code = t.names.index("fields.field_coefficients")
    assert {span[-1] for span in t.spans if span[0] == code} == {desc.name for desc in descs.values()}
