"""The benchmark harness in ``perfbench/`` drives carnot from outside: its
tracer imports every layer module and wraps their public functions, and its
setup calls ``carnot.fields.field_coefficients`` by attribute.  This keeps
the package and the harness in step."""

import json
import time
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



def _declared():
    return json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())


def test_workloads_pass_the_gate(monkeypatch):
    # what run.py asserts, on two passes of each declared workload
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    descs, fns, plan = workloads.setup(0)
    for w in _declared()["workloads"]:
        make_inputs, pass_fn = workloads.WORKLOADS[w["name"]]
        inputs = make_inputs(0, descs, fns, plan)
        outcomes = [pass_fn(inputs) for _ in range(2)]
        for o in outcomes:
            assert o.hard_failures == [], w["name"]
            assert o.failed == 0, w["name"]
            assert o.fingerprint == outcomes[0].fingerprint, w["name"]


def test_second_order_fd_gate(monkeypatch):
    # two seed-0 passes of the FD second-order workload: no hard failure and
    # the same verdicts; its counted failures (ROADMAP item 3) are not pinned
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    descs, fns, plan = workloads.setup(0)
    make_inputs, pass_fn = workloads.WORKLOADS["second_order_fd"]
    inputs = make_inputs(0, descs, fns, plan)
    outcomes = [pass_fn(inputs) for _ in range(2)]
    assert all(o.hard_failures == [] for o in outcomes)
    assert outcomes[0].fingerprint == outcomes[1].fingerprint


def test_traced_pass_derives_declared_metrics(monkeypatch):
    # a traced set-up and one traced suite pass, as run.py --trace 1 runs them
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    import workloads
    from layer_metrics import derive

    t = tracer.Tracer()
    t.install()
    try:
        descs, fns, plan = workloads.setup(0)
    finally:
        t.uninstall()
    make_inputs, pass_fn = workloads.WORKLOADS["suite"]
    inputs = make_inputs(0, descs, fns, plan)
    t0 = time.perf_counter()
    pass_fn(inputs)
    untraced = time.perf_counter() - t0
    t.pass_id = 1
    t.install()
    try:
        t0 = time.perf_counter()
        outcome = pass_fn(inputs)
        traced = time.perf_counter() - t0
    finally:
        t.uninstall()
    assert outcome.hard_failures == []
    metrics, _ = derive(t, 1, [untraced], [traced])
    assert {k: u for k, (_, u) in metrics.items()} == {m["name"]: m["unit"] for m in _declared()["per_layer"]}
