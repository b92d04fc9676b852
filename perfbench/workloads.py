"""The three benchmark workloads: inputs from a seed, one pass, and its checks.

Every carnot call goes through a module attribute looked up at call time
(``suite.run_suite``, not a name bound at import), so that the tracer's
wrappers see it.  A pass returns ``Outcome``: the items it completed, the
operations it attempted and failed, and a fingerprint that must be identical
across the passes of one seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from dataclasses import replace as dc_replace

import numpy as np

import carnot
from carnot import groups, registry, reports, sampling, second_order, suite

# The groups of run_suite's battery, and the step-4 filiform of the tests.
BUILTINS = ("heisenberg:1", "heisenberg:2", "free_step2:3", "engel")
FILIFORM = "filiform4"
# Metric-name keys of the groups, by the name their descriptor carries.
KEY_BY_DESC_NAME = {
    "heisenberg(1)": "heisenberg1",
    "heisenberg(2)": "heisenberg2",
    "free_step2(3)": "free_step2_3",
    "engel": "engel",
    FILIFORM: "filiform4",
}
SO_GROUPS = ("heisenberg:1", "engel", "free_step2:3", "heisenberg:2")

# product_bulk: calls per pass at each batch size.
BATCHES = (("b1", 1, 256), ("b1e3", 1000, 16), ("b1e5", 100_000, 1))
RESIDUAL_ROWS = 1000
# Criterion-1 and criterion-2 tolerances of carnot.suite.
TOL_ASSOC, TOL_INVERSE, TOL_DILATION, TOL_CLOSED = 1e-12, 1e-14, 1e-12, 1e-14

SO_RANDOM_POINTS = 10
SO_RADIUS = 0.5


@dataclass
class Outcome:
    items: int
    attempted: int
    failed: int
    fingerprint: object
    hard_failures: list  # reasons the outputs are wrong, beyond counted failures


def filiform4(seed):
    """Step-4 filiform [e1,e2]=c1 e3, [e1,e3]=c2 e4, [e1,e4]=c3 e5 with
    seeded constants; Jacobi holds for any c since only e1 brackets."""
    c = np.random.default_rng((seed, 4)).uniform(0.5, 1.5, 3)
    br = {}
    for (i, j, k), ck in zip(((0, 1, 2), (0, 2, 3), (0, 3, 4)), c):
        br[(i, j, k)] = float(ck)
        br[(j, i, k)] = -float(ck)
    desc = groups.GroupDescriptor(FILIFORM, (2, 1, 1, 1), br)
    report = groups.validate_descriptor(desc)
    if not report.ok:
        raise carnot.DescriptorError(f"seeded filiform4 failed validation: {report}")
    return desc


def setup(seed):
    """What one CLI process pays before its first check: descriptors built
    and validated, field coefficients on them, registry functions, plans."""
    descs = {spec: registry.build_group(spec) for spec in BUILTINS}
    descs[FILIFORM] = filiform4(seed)
    fns = {}
    for spec, desc in descs.items():
        carnot.fields.field_coefficients(desc)
        fns[spec] = registry.smooth_suite(desc), registry.polyhedral_suite(desc)
    plan = dc_replace(sampling.SamplingPlan(seed=seed), use_analytic_gradient=False)
    return descs, fns, plan


# -- suite ----------------------------------------------------------------------


def suite_inputs(seed, descs, fns, plan):
    return seed


def suite_pass(seed):
    try:
        records, _ = suite.run_suite(seed)
        doc = reports.render_json(records, {"seed": seed})
    except carnot.CarnotError as exc:
        return Outcome(0, 1, 1, None, [f"run_suite raised {type(exc).__name__}: {exc}"])
    reasons = [
        f"{r.check_id}: {'failed' if not r.passed else 'passed with a non-finite metric'} (metric {r.metric})"
        for r in records
        if not (r.passed and (r.metric is None or math.isfinite(r.metric)))
    ]
    return Outcome(len(records), len(records), len(reasons), doc, reasons)


# -- product_bulk ------------------------------------------------------------------


def _closed_form(key, x, y):
    """Hand product formulas, or None for groups without one here."""
    if key == "heisenberg1":
        z = x + y
        z[..., 2] += 0.5 * (x[..., 0] * y[..., 1] - x[..., 1] * y[..., 0])
        return z
    if key == "engel":
        w3 = x[..., 0] * y[..., 1] - x[..., 1] * y[..., 0]
        w4 = x[..., 0] * y[..., 2] - x[..., 2] * y[..., 0]
        z = x + y
        z[..., 2] += 0.5 * w3
        z[..., 3] += 0.5 * w4 + (x[..., 0] - y[..., 0]) * w3 / 12.0
        return z
    return None


def product_inputs(seed, descs, fns, plan):
    """Per group and batch size: x, y, z points and dilation factors."""
    out = []
    for spec in (*BUILTINS, FILIFORM):
        desc = descs[spec]
        rng = np.random.default_rng((seed, 1, len(out)))
        batches = []
        for tag, size, calls in BATCHES:
            shape = (calls, desc.dim) if size == 1 else (calls, size, desc.dim)
            x, y, z = rng.uniform(-1.0, 1.0, (3,) + shape)
            rs = rng.uniform(0.2, 2.0, shape[:-1])
            batches.append((tag, x, y, z, rs))
        out.append((KEY_BY_DESC_NAME[desc.name], desc, batches))
    return out


def _residuals(desc, x, y, z, rs):
    """Criterion-1 residuals of the group law on the rows given."""
    p = desc.product
    assoc = float(np.max(np.abs(p(p(x, y), z) - p(x, p(y, z)))))
    inv = float(np.max(np.abs(p(x, desc.inverse(x)))))
    dil = float(np.max(np.abs(desc.dilate(rs, p(x, y)) - p(desc.dilate(rs, x), desc.dilate(rs, y)))))
    return assoc, inv, dil, 7 * len(x)


def product_pass(inputs):
    items = attempted = failed = 0
    reasons, checksums = [], []
    for key, desc, batches in inputs:
        for tag, x, y, z, rs in batches:
            results = [desc.product(xi, yi) for xi, yi in zip(x, y)]
            items += x.shape[0] * (x.shape[1] if x.ndim == 3 else 1)
            attempted += len(results)
            out = np.stack(results)
            hand = _closed_form(key, x, y)
            if hand is not None:
                err = float(np.max(np.abs(out - hand)))
                attempted += 1
                if not err <= TOL_CLOSED:
                    failed += 1
                    reasons.append(f"{key}/{tag}: closed-form error {err:.3g}")
            rows = (x, y, z, rs) if x.ndim == 2 else tuple(a[0, :RESIDUAL_ROWS] for a in (x, y, z, rs))
            assoc, inv, dil, points = _residuals(desc, *rows)
            items += points
            attempted += 3
            for what, val, ok in (
                ("associativity", assoc, assoc < TOL_ASSOC),
                ("inverse", inv, inv <= TOL_INVERSE),
                ("dilation", dil, dil < TOL_DILATION),
            ):
                if not ok:
                    failed += 1
                    reasons.append(f"{key}/{tag}: {what} residual {val:.3g}")
            checksums.append(float(out.sum()))
    return Outcome(items, attempted, failed, tuple(checksums), reasons)


# -- second_order_fd ------------------------------------------------------------------


def second_order_inputs(seed, descs, fns, plan):
    """(group, function, point, at_identity) operations with the FD plan."""
    ops = []
    for spec in SO_GROUPS:
        desc = descs[spec]
        smooth, poly = fns[spec]
        for u in smooth + poly:
            ops.append((spec, u, desc.identity(), True))
        rng = np.random.default_rng((seed, 2, SO_GROUPS.index(spec)))
        for i, x in enumerate(sampling.ball(desc, SO_RADIUS, SO_RANDOM_POINTS, rng)):
            ops.append((spec, poly[i % len(poly)], x, False))
    return ops, plan


def second_order_pass(inputs):
    ops, plan = inputs
    failed = 0
    verdicts, reasons = [], []
    for spec, u, x, at_identity in ops:
        try:
            rep = second_order.characterize_second_order(u, x, plan)
        except carnot.CarnotError as exc:
            reasons.append(f"{spec}/{u.label}: raised {type(exc).__name__}: {exc}")
            verdicts.append("raised")
            failed += 1
            continue
        ok = rep.passed()
        verdicts.append((rep.equivalence, ok))
        failed += not ok
        if at_identity and not ok:
            reasons.append(f"{spec}/{u.label} at the identity: {rep.equivalence}, claims {rep.claims}")
    return Outcome(len(ops), len(ops), failed, tuple(verdicts), reasons)


WORKLOADS = {
    "suite": (suite_inputs, suite_pass),
    "product_bulk": (product_inputs, product_pass),
    "second_order_fd": (second_order_inputs, second_order_pass),
}
