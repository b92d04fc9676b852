"""Acceptance battery: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run ``pytest -s`` to see them on
success).  The checks themselves live in ``carnot.suite`` so the CLI
``suite`` command and this module share a single implementation.
"""

import functools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from carnot import SamplingPlan, ScalarField, Tolerances, build_function, convexity, fields, monomials_up_to, registry
from carnot import hull as hull_mod
from carnot import second_order as second_order_mod
from carnot import suite as suite_mod
from carnot.groups import GroupDescriptor
from carnot.hull import ConvexPolytope
from carnot.reports import render_csv, render_json
from carnot.suite import (
    dermax_records,
    euclidean_degeneration_records,
    field_identity_records,
    first_order_records,
    group_law_records,
    heisenberg_closed_form_records,
    hull_records,
    mean_value_records,
    mignot_records,
    registry_certificate_records,
    run_suite,
    second_order_records,
    structure_constant_records,
)

SEED = 0
PLAN = SamplingPlan(seed=SEED)


def _report(name, records, elapsed=None, budget=None):
    ok = all(r.passed for r in records)
    if budget is not None:
        ok = ok and elapsed < budget
    timing = f" [{elapsed:.2f}s < {budget:g}s]" if budget is not None else ""
    print(f"{'PASS' if ok else 'FAIL'} criterion {name}{timing}")
    for r in records:
        if not r.passed:
            print("    " + r.line())
    return ok


def _run(fn, plan=PLAN):
    t0 = time.perf_counter()
    records, curves = fn(plan)
    return records, curves, time.perf_counter() - t0


def test_criterion_01_group_law_exactness():
    records, _, dt = _run(group_law_records)
    assert _report("1 (group law exactness)", records, dt, 5.0)
    for r in records:
        assert r.passed, r.line()
    assert dt < 5.0


def test_criterion_01_nan_product_fails(monkeypatch):
    # a product with NaN in one output row poisons every residual of the law
    product = GroupDescriptor.product

    def nan_row(self, x, y):
        out = product(self, x, y)
        if out.ndim == 2:
            out[len(out) // 2] = np.nan
        return out

    monkeypatch.setattr(GroupDescriptor, "product", nan_row)
    records, _, _ = _run(group_law_records)
    assert len(records) == 16 and not any(r.passed for r in records)


def test_criterion_02_heisenberg_closed_form():
    records, _, dt = _run(heisenberg_closed_form_records)
    assert _report("2 (Heisenberg closed form)", records)
    assert all(r.passed for r in records)


def test_criterion_02_nan_product_fails(monkeypatch):
    product = GroupDescriptor.product

    def nan_row(self, x, y):
        out = product(self, x, y)
        out[len(out) // 2] = np.nan
        return out

    monkeypatch.setattr(GroupDescriptor, "product", nan_row)
    records, _, _ = _run(heisenberg_closed_form_records)
    assert len(records) == 1 and not records[0].passed and np.isnan(records[0].metric)


def test_criterion_03_structure_constants():
    records, _, dt = _run(structure_constant_records)
    assert _report("3 (structure constants)", records)
    assert all(r.passed for r in records)


def test_criterion_03_nan_constant_fails(monkeypatch):
    # a NaN a^{32}_1 on heisenberg(1) fails the rotational record, and the
    # antisymmetry record that reads it
    def nan_a32_1(desc):
        alij = fields.field_coefficients(desc).copy()
        if desc.name == "heisenberg(1)":
            alij[0, 1, 0] = np.nan
        return alij

    monkeypatch.setattr(suite_mod, "field_coefficients", nan_a32_1)
    records, _, _ = _run(structure_constant_records)
    assert [r.passed for r in records] == [False, False]
    assert all(np.isnan(r.metric) for r in records)


def test_criterion_04_field_identity():
    records, _, dt = _run(field_identity_records)
    assert _report("4 (second-derivative structure identity)", records)
    assert all(r.passed for r in records)


def test_criterion_04_nan_field_fails(monkeypatch):
    # X_1 NaN on the monomial x1: every residual that applies X_1 is NaN
    build = fields._field_matrices

    def nan_on_x1(desc, degree):
        X, D = build(desc, degree)
        x1 = monomials_up_to(desc, degree).index((1,) + (0,) * (desc.dim - 1))
        X = X.copy()
        X[0, :, x1] = np.nan
        return X, D

    monkeypatch.setattr(fields, "_field_matrices", nan_on_x1)
    records, _, _ = _run(field_identity_records)
    assert len(records) == 4 and not any(r.passed for r in records)
    assert all(np.isnan(r.metric) for r in records)


def test_criterion_04_matrix_builds(monkeypatch):
    # a host-independent work budget: the identity is checked by matmul on
    # coefficient rows, with one build of the field matrices per descriptor
    # (47,717 polynomial constructions when every check used dict arithmetic)
    built = []
    build = fields._field_matrices

    def counting(desc, degree):
        built.append((id(desc), degree))
        return build(desc, degree)

    monkeypatch.setattr(fields, "_field_matrices", counting)
    records, _, _ = _run(field_identity_records)
    assert len(built) == len(set(built)) == len(records) == 4


def test_criterion_05_subdifferential_hulls():
    records, _, dt = _run(hull_records)
    assert _report("5 (subdifferential hulls)", records, dt, 20.0)
    assert all(r.passed for r in records)
    assert dt < 20.0


def test_criterion_05_nan_gradient_fails(monkeypatch):
    # a quadratic whose analytic gradient is NaN where x1 > 0.3 gives a NaN
    # hull diameter at some sample points: the smooth-singleton record fails
    def nan_gradient(desc):
        u = build_function(desc, "quadratic")
        grad = lambda p: np.where(p[..., :1] > 0.3, np.nan, u.gradient(p))
        return [ScalarField(desc, u.value, label=u.label, grad_h=grad)]

    monkeypatch.setattr(suite_mod, "smooth_suite", nan_gradient)
    records, _, _ = _run(hull_records)
    assert [r.passed for r in records if r.check_id == "hull/smooth-singleton"] == [False]


def test_criterion_06_first_order_characterization():
    records, _, dt = _run(first_order_records)
    assert _report("6 (first-order characterization)", records)
    assert all(r.passed for r in records)


def test_criterion_06_nan_field_fails(monkeypatch):
    # quad_vertical NaN where x1 > 0: the smooth record must fail
    build_function = suite_mod.build_function

    def nan_right(desc, name, **kwargs):
        u = build_function(desc, name, **kwargs)
        if name != "quad_vertical":
            return u
        fn = lambda p: np.where(p[..., 0] > 0.0, np.nan, u.value(p))
        return ScalarField(desc, fn, label=u.label, grad_h=u.grad_h)

    monkeypatch.setattr(suite_mod, "build_function", nan_right)
    records, _, _ = _run(first_order_records)
    smooth = [r for r in records if r.check_id == "first-order/smooth"]
    assert [r.passed for r in smooth] == [False]
    # the hull diameter stays finite, so the detail must say which points fail
    assert smooth[0].detail.startswith("ladder stalls at points [0, 1, ")


def test_criterion_07_mean_value_witnesses():
    records, _, dt = _run(mean_value_records)
    assert _report("7 (mean value witnesses)", records)
    assert all(r.passed for r in records)


def test_criterion_07_product_calls(monkeypatch):
    # a host-independent work budget: the witnesses of a batch share their
    # products (38,840 calls when every witness searched alone, 1,343 with a
    # 70-step ternary search, 391 with a psi grid before the section search,
    # 376 with a product call per search step; the search now runs on each
    # segment's line x + t b1 + t^2 b2, one product call per witness batch;
    # 46 with a witness call per field, 34 with one per field family: 4
    # groups x 2 families, plus the lambda record; one witness call for all
    # 21 fields now takes one line product and one shell product per retry
    # round for each group: 9 calls with analytic gradients, 43 with FD
    # stencils).  The lockstep evaluates each field once per step: 379
    # value calls (analytic) and 413 (FD) with 17 steps, 189 and 223 since
    # the search stops at the depth the plan's finest shell resolves (7
    # steps); the budgets keep 18 calls of headroom, the product budgets 3
    calls = {}
    product, value, witnesses = GroupDescriptor.product, ScalarField.value, suite_mod.mean_value_witnesses

    def counting(key, fn):
        def run(*args):
            calls[key] = calls.get(key, 0) + 1
            return fn(*args)

        return run

    monkeypatch.setattr(GroupDescriptor, "product", counting("product", product))
    monkeypatch.setattr(ScalarField, "value", counting("value", value))
    monkeypatch.setattr(suite_mod, "mean_value_witnesses", counting("witnesses", witnesses))
    mean_value_records(PLAN)
    assert calls["witnesses"] == 1 and 0 < calls["product"] <= 12 and calls["value"] <= 207, calls
    calls.clear()
    mean_value_records(SamplingPlan(seed=SEED, use_analytic_gradient=False))
    assert calls["witnesses"] == 1 and calls["product"] <= 46 and calls["value"] <= 241, calls


def test_line_product_budget(monkeypatch):
    # a host-independent work budget: h-convexity, directional derivatives
    # and membership read their segments off one line per (point,
    # direction), so the group product sees only the ends x h^{+-1}.  When
    # they took the product on full grids, run_suite read 183,970 product
    # points, criterion 7 57,320 (its lambda record's membership), criterion
    # 8 52,400, and criterion 12 30 product calls on 11,520 points with 45
    # value calls.  Criterion 6's residual ladders take all their radii in
    # one product and one value call (18 product and 18 value calls when
    # each radius had its own).  Criterion 12's segments, the same for all
    # five fields, are cached per descriptor: one product while the table
    # is cold and none once it is warm (5, one per field, before)
    work = {"product": 0, "points": 0, "value": 0}
    per = {}
    product, value = GroupDescriptor.product, ScalarField.value

    def counting_product(self, x, y):
        work["product"] += 1
        work["points"] += int(np.prod(np.broadcast_shapes(np.shape(x), np.shape(y))[:-1]))
        return product(self, x, y)

    def counting_value(self, pts):
        work["value"] += 1
        return value(self, pts)

    def measured(fn):
        def run(*args):
            before = dict(work)
            out = fn(*args)
            per[fn.__name__] = {key: work[key] - before[key] for key in work}
            return out

        return run

    monkeypatch.setattr(GroupDescriptor, "product", counting_product)
    monkeypatch.setattr(ScalarField, "value", counting_value)
    monkeypatch.setattr(suite_mod, "CRITERIA", tuple(measured(fn) for fn in suite_mod.CRITERIA))
    run_suite(SEED)
    assert work["points"] <= 120_130, work
    assert per["mean_value_records"]["points"] <= 43_720, per
    assert per["dermax_records"]["points"] <= 12_400, per
    assert per["first_order_records"]["product"] <= 4, per
    cert = per["registry_certificate_records"]
    assert cert["product"] <= 1 and cert["points"] <= 256 and cert["value"] == 5, cert


@pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "fd"])
def test_criterion_07_one_hull_draw_per_group(monkeypatch, analytic):
    # a host-independent work budget: the hulls of a descriptor read one
    # cached stream, so each retry round draws its ball sample once (every
    # hull drew its own copy of the same sample before).  Analytic gradients
    # are all stable and need one round
    draws = {}
    unit_ball = convexity.unit_ball

    def counting(desc, *args):
        draws[desc] = draws.get(desc, 0) + 1
        return unit_ball(desc, *args)

    monkeypatch.setattr(convexity, "unit_ball", counting)
    mean_value_records(SamplingPlan(seed=SEED, use_analytic_gradient=analytic))
    assert len(draws) == 4 and max(draws.values()) <= (1 if analytic else 4), draws


def test_criterion_07_nan_field_fails(monkeypatch):
    # a polyhedral field that is NaN where x1 > 0.5 must fail its records
    polyhedral_suite = suite_mod.polyhedral_suite

    def nan_right(desc):
        out = []
        for u in polyhedral_suite(desc):
            fn = lambda p, u=u: np.where(p[..., 0] > 0.5, np.nan, u.value(p))
            out.append(ScalarField(desc, fn, label=u.label, grad_h=u.grad_h))
        return out

    monkeypatch.setattr(suite_mod, "polyhedral_suite", nan_right)
    records, _, _ = _run(mean_value_records)
    poly = [r for r in records if r.check_id.endswith("/polyhedral")]
    assert len(poly) == 4 and not any(r.passed for r in poly)
    assert all(r.passed for r in records if r not in poly)


def test_criterion_07_bracketing_failure_fails_records(monkeypatch):
    # analytic gradients scaled by 1.2 on every smooth field: the secant
    # slope leaves the sampled support range, which fails the four smooth
    # records with the error as detail instead of ending the suite
    smooth_suite = suite_mod.smooth_suite

    def scaled(desc):
        return [
            ScalarField(desc, u.fn, label=u.label, grad_h=lambda p, u=u: 1.2 * u.gradient(p))
            for u in smooth_suite(desc)
        ]

    monkeypatch.setattr(suite_mod, "smooth_suite", scaled)
    records, _, _ = _run(mean_value_records)
    smooth = [r for r in records if r.check_id.endswith("/smooth")]
    assert len(smooth) == 4 and not any(r.passed for r in smooth)
    for r in smooth:
        assert r.metric == np.inf
        assert r.detail.startswith("secant slope ") and "outside sampled support range" in r.detail
    others = [r for r in records if r not in smooth]
    assert [r.check_id for r in others][-1] == "mvt/lambda-relaxed"
    assert len(others) == 5 and all(r.passed for r in others)


def test_criterion_08_dermax_and_subadditivity():
    records, _, dt = _run(dermax_records)
    assert _report("8 (directional derivative vs support)", records)
    assert all(r.passed for r in records)


def test_criterion_08_nan_field_fails(monkeypatch):
    # every field NaN where x1 > 0: each field has sample points there, whose
    # directional derivatives are NaN, so each record must fail
    def nan_right(suite):
        def patched(desc):
            out = []
            for u in suite(desc):
                fn = lambda p, u=u: np.where(p[..., 0] > 0.0, np.nan, u.value(p))
                out.append(ScalarField(desc, fn, label=u.label, grad_h=u.grad_h))
            return out

        return patched

    monkeypatch.setattr(suite_mod, "smooth_suite", nan_right(suite_mod.smooth_suite))
    monkeypatch.setattr(suite_mod, "polyhedral_suite", nan_right(suite_mod.polyhedral_suite))
    records, _, _ = _run(dermax_records)
    assert records and not any(r.passed for r in records)


def test_criterion_09_second_order_characterization():
    records, _, dt = _run(second_order_records)
    assert _report("9 (second-order characterization)", records, dt, 30.0)
    assert all(r.passed for r in records)
    assert dt < 30.0


def _nan_right(build_function, names, value=True):
    """``build_function`` with the named fields' gradients, and their values
    unless ``value`` is false, NaN where x1 > 0."""

    def build(desc, name, **kwargs):
        u = build_function(desc, name, **kwargs)
        if name not in names:
            return u
        fn = (lambda p: np.where(p[..., 0] > 0.0, np.nan, u.value(p))) if value else u.fn
        grad = lambda p: np.where(p[..., :1] > 0.0, np.nan, u.gradient(p))
        return ScalarField(desc, fn, label=u.label, grad_h=grad)

    return build


def test_criterion_09_nan_field_fails(monkeypatch):
    # quad_vertical NaN where x1 > 0: both estimators see NaN, so every record
    # of that field fails; the kink record, on another field, still passes.
    # The NaN hull diameter certifies no gradient, so neither fit is made and
    # the fit records read inf.
    monkeypatch.setattr(suite_mod, "build_function", _nan_right(suite_mod.build_function, ("quad_vertical",)))
    records, _, _ = _run(second_order_records)
    assert [r.check_id for r in records if r.passed] == ["second-order/h1/kink-equivalence"]
    assert all(r.metric == np.inf for r in records[:3])


def test_criterion_09_nan_gradient_fails(monkeypatch):
    # quad_vertical's gradient NaN where x1 > 0, its values finite: the hull
    # diameter is NaN, which certifies no singleton, so the records that read
    # the certified gradient fail
    monkeypatch.setattr(suite_mod, "build_function", _nan_right(suite_mod.build_function, ("quad_vertical",), value=False))
    records, _, _ = _run(second_order_records)
    verdicts = {r.check_id: r.passed for r in records}
    assert not verdicts["second-order/h1/hessian"]
    assert not verdicts["second-order/h1/v2"]
    assert [r.check_id for r in records if r.passed] == ["second-order/h1/kink-equivalence"]


def test_criterion_10_euclidean_degeneration():
    records, _, dt = _run(euclidean_degeneration_records)
    assert _report("10 (Euclidean degeneration)", records)
    assert all(r.passed for r in records)


def test_criterion_10_nan_gradient_fails(monkeypatch):
    # the fit reads gradients only, so the NaN goes into the gradient
    build = _nan_right(suite_mod.build_function, ("euclidean_quadratic",), value=False)
    monkeypatch.setattr(suite_mod, "build_function", build)
    records, _, _ = _run(euclidean_degeneration_records)
    assert len(records) == 2 and not any(r.passed for r in records)
    assert all(np.isnan(r.metric) for r in records)


def test_criterion_11_quotient_inclusion():
    records, _, dt = _run(mignot_records)
    assert _report("11 (set-valued quotient inclusion)", records)
    assert all(r.passed for r in records)


def test_criterion_11_nan_gradient_fails(monkeypatch):
    # analytic gradients NaN where |x3| > 0.15: the coarse quotient hulls
    # see them, the extended-differential shells do not, so every record
    # must fail without an error
    smooth_suite = suite_mod.smooth_suite

    def nan_gradient(desc):
        out = []
        for u in smooth_suite(desc):
            grad = lambda p, u=u: np.where(np.abs(p[..., 2:3]) > 0.15, np.nan, u.gradient(p))
            out.append(ScalarField(desc, u.fn, label=u.label, grad_h=grad))
        return out

    monkeypatch.setattr(suite_mod, "smooth_suite", nan_gradient)
    records, _, _ = _run(mignot_records)
    assert len(records) == 3 and not any(r.passed for r in records)
    assert all(r.check_id.startswith("mignot/") for r in records)


def test_criterion_11_nan_certificate_fails(monkeypatch):
    # analytic gradients NaN where x1 > 0, next to the identity: the NaN hull
    # diameter certifies no gradient, so each record fails and says why
    smooth_suite = suite_mod.smooth_suite

    def nan_gradient(desc):
        return [
            ScalarField(desc, u.fn, label=u.label, grad_h=lambda p, u=u: np.where(p[..., :1] > 0.0, np.nan, u.gradient(p)))
            for u in smooth_suite(desc)
        ]

    monkeypatch.setattr(suite_mod, "smooth_suite", nan_gradient)
    records, _, _ = _run(mignot_records)
    assert len(records) == 3 and not any(r.passed for r in records)
    assert all(r.detail == "subdifferential diameter nan exceeds singleton tolerance" for r in records)


def test_criterion_11_unstable_fd_certificate_fails(monkeypatch):
    # finite-difference gradients whose two steps disagree at x leave no
    # certified gradient there, so each record fails and says why
    sampled_gradients = second_order_mod._sampled_gradients

    def unstable(*args):
        g, stable = sampled_gradients(*args)
        return g, np.zeros_like(stable)

    monkeypatch.setattr(second_order_mod, "_sampled_gradients", unstable)
    records, _, _ = _run(mignot_records, SamplingPlan(seed=SEED, use_analytic_gradient=False))
    assert len(records) == 3 and not any(r.passed for r in records)
    assert all(np.isnan(r.metric) and "unstable" in r.detail for r in records)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fd_plan_suite_passes(seed):
    # finite differences for every gradient: round-off divided by tau grows
    # along the Mignot ladder of an affine field, far under its tolerance
    records, _ = run_suite(seed, SamplingPlan(seed=seed, use_analytic_gradient=False))
    assert len(records) == 58
    assert [r.line() for r in records if not r.passed] == []


def test_hull_builds_per_criterion(monkeypatch):
    # a host-independent work budget: every internal hull loop makes one
    # batched gradient sample per field, criteria 7 and 8 one per group for
    # all their fields, and a Mignot check one for all its scales (61 / 21
    # / 21 / 50 / 65 / 1 / 192 samples for criteria 5-11, and 1,211
    # ``from_points`` hulls, when most hulls were built one centre at a
    # time; 11 and 30 samples for criteria 9 and 11 with one per scale; 21
    # for criterion 7 and 5 for criterion 8 with one per field)
    builds, from_points_calls, current = {}, [], [None]
    shell_gradients = convexity._shell_gradients
    from_points = ConvexPolytope.from_points.__func__

    def counting_shells(*args, **kwargs):
        builds[current[0]] = builds.get(current[0], 0) + 1
        return shell_gradients(*args, **kwargs)

    def counting_hulls(cls, points):
        from_points_calls.append(current[0])
        return from_points(cls, points)

    def tagged(k, fn):
        def run(plan):
            current[0] = k
            return fn(plan)

        return run

    monkeypatch.setattr(convexity, "_shell_gradients", counting_shells)
    monkeypatch.setattr(second_order_mod, "_shell_gradients", counting_shells)
    monkeypatch.setattr(ConvexPolytope, "from_points", classmethod(counting_hulls))
    monkeypatch.setattr(suite_mod, "CRITERIA", tuple(tagged(k, fn) for k, fn in enumerate(suite_mod.CRITERIA, 1)))
    records, _ = run_suite(SEED)
    assert len(records) == 58 and all(r.passed for r in records)
    assert builds == {5: 4, 6: 2, 7: 4, 8: 1, 9: 3, 10: 1, 11: 6}
    assert len(from_points_calls) <= 2, from_points_calls


def test_criterion_12_determinism():
    t0 = time.perf_counter()
    r1, c1 = run_suite(seed=SEED)
    dt_single = time.perf_counter() - t0
    r2, c2 = run_suite(seed=SEED)
    same = render_json(r1) == render_json(r2) and render_csv(c1) == render_csv(c2)
    ok = same and all(r.passed for r in r1) and dt_single < 60.0
    print(f"{'PASS' if ok else 'FAIL'} criterion 12 (determinism) [suite {dt_single:.2f}s < 60s]")
    assert same, "suite reports differ between identical runs"
    assert all(r.passed for r in r1)
    assert dt_single < 60.0


def test_run_suite_refuses_a_plan_of_another_seed():
    # the plan carries the run's only seed: every draw of the suite reads it
    with pytest.raises(ValueError, match="seed"):
        run_suite(0, SamplingPlan(seed=1))


def _env_with_sources(**extra):
    """This environment, with this checkout's sources first on PYTHONPATH and ``extra`` set."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **extra}


def test_reports_do_not_depend_on_cache_state():
    # descriptors and the tables cached on them outlive a run: the reports
    # of a fresh process equal those of one that ran other seeds and plans
    env = _env_with_sources()
    script = (
        "import sys; from carnot.suite import run_suite; from carnot.reports import render_csv, render_json; "
        "r, c = run_suite(0); sys.stdout.write(render_json(r) + '\\0' + render_csv(c))"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    run_suite(1)
    run_suite(SEED, SamplingPlan(seed=SEED, use_analytic_gradient=False))
    r, c = run_suite(SEED)
    assert proc.stdout == render_json(r) + "\0" + render_csv(c)


# sha256 of render_json + render_csv of run_suite(seed) under the default plan
# and under FD gradients, computed with OpenBLAS's generic x86-64 kernel.
# OpenBLAS picks its kernel per CPU, and the metrics that come from BLAS
# products and LAPACK solves round differently under SkylakeX, Haswell and
# Sandybridge; Prescott needs only SSE3, so any x86-64 host runs it, and it
# gives Sandybridge's bytes, with one thread or two.  A change that moves a
# report byte, even at round-off, updates the digest here and names the byte
# in CHANGES.md
REPORT_SHA256 = {
    (True, 0): "976939c5ced9351507ffbba2a0b632189f04713c7b10eacd23412dd0e31a2eb9",
    (True, 1): "be3fea7671923deb1dfdd67003235fac74f0165c67b80acb078f7a72ff528c24",
    (True, 2): "56a9ef52dc553e164d1fedb6e30895a0ab624ac7ea274053d165e71e00b88e5a",
    (False, 0): "8c882725685dcd0a1fcd5fd9babac6de5d6dad979a5067d1273008b662d2e7e0",
    (False, 1): "6fbe6311b1fecddcbf042b65eb7ba4652cab637a90e3701c9a44d639d6da0ca4",
    (False, 2): "6557f50433a31d4eac95a192ca38452cb3c5f87ddededc8cce65ecfa58c9b9fd",
}


def test_report_bytes_pinned():
    script = (
        "import hashlib, json, sys\n"
        "from carnot import SamplingPlan\n"
        "from carnot.reports import render_csv, render_json\n"
        "from carnot.suite import run_suite\n"
        "runs = []\n"
        f"for analytic, seed in {list(REPORT_SHA256)!r}:\n"
        "    records, curves = run_suite(seed, SamplingPlan(seed=seed, use_analytic_gradient=analytic))\n"
        "    digest = hashlib.sha256((render_json(records) + render_csv(curves)).encode()).hexdigest()\n"
        "    runs.append([analytic, seed, len(records), all(r.passed for r in records), digest])\n"
        "json.dump(runs, sys.stdout)\n"
    )
    env = _env_with_sources(OPENBLAS_CORETYPE="Prescott")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    assert all(count == 58 and passed for _, _, count, passed, _ in runs), runs
    assert {(analytic, seed): digest for analytic, seed, _, _, digest in runs} == REPORT_SHA256


def test_one_build_per_group_spec(monkeypatch):
    # a host-independent work budget: run_suite builds and validates each
    # spec once (27 builds when every criterion built its own descriptors)
    built = []

    def counting(name, builder):
        def build(*args):
            built.append((name, *args))
            return builder(*args)

        return build

    for name, builder in list(registry.GROUPS.items()):
        monkeypatch.setitem(registry.GROUPS, name, counting(name, builder))
    run_suite(SEED)
    specs = [("engel",), ("euclidean", 2), ("euclidean", 3), ("free_step2", 3), ("heisenberg", 1), ("heisenberg", 2)]
    assert sorted(built) == specs


def test_one_membership_call_per_lambda_record(monkeypatch):
    # a host-independent work budget: criterion 7's lambda-relaxed record
    # checks its 20 witnesses in one call (one call per witness before)
    calls = []
    membership = suite_mod.lambda_subdiff_membership

    def counting(u, xs, *args):
        calls.append(len(xs))
        return membership(u, xs, *args)

    monkeypatch.setattr(suite_mod, "lambda_subdiff_membership", counting)
    records, _, _ = _run(mean_value_records)
    assert all(r.passed for r in records) and calls == [20]


def test_diameter_calls_per_suite(monkeypatch):
    # a host-independent work budget: one batched diameter per field in
    # criteria 5 and 6 and one per certificate (87 one-hull calls before)
    calls = []
    diameters = hull_mod.diameters

    def counting(V):
        calls.append(len(V))
        return diameters(V)

    for module in (hull_mod, convexity, second_order_mod, suite_mod):
        monkeypatch.setattr(module, "diameters", counting)
    records, _ = run_suite(SEED)
    assert len(records) == 58 and all(r.passed for r in records)
    assert len(calls) <= 11 and sum(calls) == 87, calls


def test_registry_certificates_invariant():
    records, _, dt = _run(registry_certificate_records)
    assert _report("invariant (registry certificates)", records)
    assert all(r.passed for r in records)


def test_criterion_12_reads_plan_tolerance():
    # the affine certificate's violation is round-off, above a 1e-30 tolerance
    plan = SamplingPlan(seed=SEED, tol=Tolerances(hconvexity=1e-30))
    records, _, _ = _run(registry_certificate_records, plan)
    (affine,) = [r for r in records if r.check_id == "registry/certificate/affine"]
    assert affine.tolerance == 1e-30 and not affine.passed
    assert affine.line().startswith("FAIL") and "tol=1e-30" in affine.line()


def test_criterion_12_samples_under_the_run_plan(monkeypatch):
    # the certificates take the run's seed and base radius, with their own
    # coarser segment sample, so --seed and a plan file reach them
    plans = []
    check = suite_mod.hconvexity_check
    monkeypatch.setattr(suite_mod, "hconvexity_check", lambda u, plan: plans.append(plan) or check(u, plan))
    records, _, _ = _run(registry_certificate_records, SamplingPlan(seed=2, base_radius=0.5))
    assert len(plans) == len(records) == 5 and all(r.passed for r in records)
    assert {(p.seed, p.base_radius, p.directions, p.base_count, p.lambda_grid) for p in plans} == {(2, 0.5, 16, 8, 5)}


def test_criterion_12_nan_certificate_fails(monkeypatch):
    # the twelfth entry of suite.CRITERIA: a field NaN where x1 > 0.5 has
    # NaN on some certification segment, which counts as an infinite violation
    for name, builder in list(registry.FUNCTIONS.items()):

        def nan_right(desc, *args, builder=builder, **kwargs):
            u = builder(desc, *args, **kwargs)
            fn = lambda p: np.where(p[..., 0] > 0.5, np.nan, u.value(p))
            return ScalarField(desc, fn, label=u.label, grad_h=u.grad_h)

        monkeypatch.setitem(registry.FUNCTIONS, name, functools.wraps(builder)(nan_right))
    records, _, _ = _run(registry_certificate_records)
    assert len(records) == 5 and not any(r.passed for r in records)
    assert all(r.metric == np.inf for r in records)
