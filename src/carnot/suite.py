"""The verification battery: one function per acceptance criterion.

Each function takes one sampling plan, whose seed is the run's only seed
and whose ``rng`` streams every draw, and returns (records, curves);
``run_suite`` chains them all under one plan.
Records carry only deterministically reproducible numbers (runtime budgets
are asserted by the test harness, not stored in reports, so that identical
seeds produce byte-identical report files).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .convexity import (
    dermax_checks,
    first_order_characterizations,
    hconvexity_check,
    lambda_subdiff_membership,
    mean_value_witnesses,
    subdifferential_hulls,
)
from .errors import NonSingletonSubdifferential
from .fields import field_coefficients
from .hull import ConvexPolytope, diameters, hausdorff_distance
from .jets import check_alij, lambda_max
from .polynomials import monomials_up_to
from .registry import (
    build_function,
    build_group,
    function_from_spec,
    parse_polynomial,
    polyhedral_suite,
    smooth_suite,
)
from .reports import CheckRecord, curve_points
from .sampling import SamplingPlan, ball, unit_directions
from .second_order import characterize_second_order, fit_extended_differential, gradient_with_certificate, mignot_check

BUILTINS = ("heisenberg:1", "heisenberg:2", "free_step2:3", "engel")


def group_law_records(plan):
    """Criterion 1: associativity, identity/inverse, dilation homomorphism."""
    records = []
    for spec in BUILTINS:
        desc = build_group(spec)
        rng = plan.rng(f"group-law/{spec}")
        x, y, z = rng.uniform(-1.0, 1.0, (3, 1000, desc.dim))
        assoc = float(np.max(np.abs(desc.product(desc.product(x, y), z) - desc.product(x, desc.product(y, z)))))
        ident = float(np.max(np.abs(desc.product(x, np.zeros(desc.dim)) - x)))
        inv = float(np.max(np.abs(desc.product(x, desc.inverse(x)))))
        rs = rng.uniform(0.2, 2.0, 1000)
        hom = float(
            np.max(np.abs(desc.dilate(rs, desc.product(x, y)) - desc.product(desc.dilate(rs, x), desc.dilate(rs, y))))
        )
        inputs = {"group": spec, "seed": plan.seed}
        records += [
            CheckRecord.bounded(f"group-law/{spec}/associativity", inputs, assoc, 1e-12),
            CheckRecord.bounded(f"group-law/{spec}/identity", inputs, ident, 1e-14, inclusive=True),
            CheckRecord.bounded(f"group-law/{spec}/inverse", inputs, inv, 1e-14, inclusive=True),
            CheckRecord.bounded(f"group-law/{spec}/dilation", inputs, hom, 1e-12),
        ]
    return records, []


def heisenberg_closed_form_records(plan):
    """Criterion 2: the hand product formula on the first Heisenberg group."""
    desc = build_group("heisenberg:1")
    rng = plan.rng("closed-form")
    x, y = rng.uniform(-1.0, 1.0, (2, 1000, 3))
    hand = np.stack(
        [
            x[:, 0] + y[:, 0],
            x[:, 1] + y[:, 1],
            x[:, 2] + y[:, 2] + 0.5 * (x[:, 0] * y[:, 1] - x[:, 1] * y[:, 0]),
        ],
        axis=-1,
    )
    err = float(np.max(np.abs(desc.product(x, y) - hand)))
    return [CheckRecord.bounded("closed-form/heisenberg1", {"seed": plan.seed}, err, 1e-14, inclusive=True)], []


def structure_constant_records(plan):
    """Criterion 3: the rotational constants and their antisymmetry."""
    records = []
    alij = field_coefficients(build_group("heisenberg:1"))
    worst = float(np.max([abs(alij[0, 0, 1] - 0.5), abs(alij[0, 1, 0] + 0.5)]))  # NaN-safe, unlike max()
    inputs = {"entries": "a^{31}_2, a^{32}_1"}
    records.append(CheckRecord.bounded("structure/heisenberg1/rotational", inputs, worst, 1e-14, inclusive=True))
    groups = BUILTINS + ("euclidean:3",)
    alijs = [field_coefficients(build_group(spec)) for spec in groups]
    worst = float(np.max([np.max(np.abs(a + np.swapaxes(a, 1, 2)), initial=0.0) for a in alijs]))
    inputs = {"groups": list(groups)}
    records.append(CheckRecord.bounded("structure/antisymmetry", inputs, worst, 1e-14, inclusive=True))
    return records, []


def field_identity_records(plan):
    """Criterion 4: the second-derivative structure identity on random
    degree <= 2 polynomials: 100 coefficient rows over the degree <= 2 basis."""
    records = []
    for spec in BUILTINS:
        desc = build_group(spec)
        C = plan.rng(f"alij/{spec}").uniform(-1.0, 1.0, (100, len(monomials_up_to(desc, 2))))
        worst = float(np.max(check_alij(desc, C)))
        records.append(CheckRecord.bounded(f"field-identity/{spec}", {"group": spec, "seed": plan.seed}, worst, 1e-10))
    return records, []


def hull_records(plan):
    """Criterion 5: the kink hull is the unit square; smooth hulls are points."""
    desc = build_group("heisenberg:1")
    records = []

    square = ConvexPolytope.from_points([[1, 1], [1, -1], [-1, 1], [-1, -1]])
    (V,) = subdifferential_hulls(build_function(desc, "one_norm"), desc.identity()[None], plan)
    dist = hausdorff_distance(ConvexPolytope(V, desc.m1), square)
    records.append(CheckRecord.bounded("hull/one-norm-square", {"seed": plan.seed}, dist, 0.05))

    rng = plan.rng("hull-points")
    pts = ball(desc, plan.base_radius, 20, rng)
    worst = float(np.max([diameters(subdifferential_hulls(u, pts, plan)) for u in smooth_suite(desc)]))
    inputs = {"seed": plan.seed, "points": 20}
    records.append(CheckRecord.bounded("hull/smooth-singleton", inputs, worst, plan.tol.singleton_diameter))
    return records, []


def first_order_records(plan):
    """Criterion 6: singleton hull iff the first-order residual ladder drops."""
    desc = build_group("heisenberg:1")
    records = []
    u = build_function(desc, "quad_vertical")
    rng = plan.rng("first-order-points")
    pts = ball(desc, plan.base_radius, 20, rng)
    diams, _, singleton, converges = first_order_characterizations(u, pts, plan)
    stalled = np.flatnonzero(singleton & ~converges).tolist()
    wide = np.flatnonzero(~singleton).tolist()
    worst_diam = float(np.max(diams))
    why = (("ladder stalls", stalled), ("hull not a singleton", wide))
    detail = "; ".join(f"{what} at points {ks}" for what, ks in why if ks)
    records.append(
        CheckRecord(
            "first-order/smooth",
            {"seed": plan.seed, "fn": u.label},
            worst_diam,
            plan.tol.singleton_diameter,
            not detail,
            detail=detail,
        )
    )
    kink = build_function(desc, "max_affine")
    (diam,), (ladder,), (singleton,), (converges,) = first_order_characterizations(kink, desc.identity()[None], plan)
    stalls = (not converges) and ladder[-1] > 0.2
    ok = diam >= 1.9 and stalls and singleton == converges
    records.append(CheckRecord("first-order/kink", {"fn": kink.label}, diam, 1.9, ok))
    curves = curve_points("first-order/kink-ladder", plan.radii, ladder)
    return records, curves


def mean_value_records(plan):
    """Criterion 7: mean-value witnesses on smooth and polyhedral functions,
    plus the lambda-relaxed version for convex + quadratic sums, from one
    witness call: field j of a k-field family takes rows j::k.

    A record reads the largest residual over its family's fields (NaN
    propagates, so a non-finite residual can never fold into a pass; a
    secant slope that no sampled subgradient brackets reads inf) and the
    first non-empty witness detail in field order."""
    families, jobs = [], []
    for spec in BUILTINS:
        desc = build_group(spec)
        rng = plan.rng(f"mvt/{spec}")
        xs = ball(desc, 0.6, 100, rng)
        dirs = unit_directions(desc.m1, 100, seed=plan.seed + 1)
        scales = rng.uniform(0.3, 1.0, 100)
        hs = dirs * scales[:, None]
        for kind, family, tol in (
            ("smooth", smooth_suite(desc), plan.tol.mvt_smooth),
            ("polyhedral", polyhedral_suite(desc), plan.tol.mvt_polyhedral),
        ):
            k = len(family)
            families.append((f"mvt/{spec}/{kind}", {"group": spec, "seed": plan.seed}, tol, len(jobs), len(jobs) + k))
            jobs += [(u, xs[j::k], hs[j::k]) for j, u in enumerate(family)]

    desc = build_group("heisenberg:1")
    terms = [
        {"exponents": [2, 0, 0], "coeff": 0.3},
        {"exponents": [1, 1, 0], "coeff": -0.2},
        {"exponents": [0, 0, 1], "coeff": 0.1},
    ]
    spec = {"composition": {"op": "sum", "terms": [{"builtin": "one_norm"}, {"polynomial": terms}]}}
    u = function_from_spec(desc, spec)
    lam = lambda_max(desc, parse_polynomial(desc, terms))
    rng = plan.rng("mvt/lambda")
    xs = ball(desc, 0.5, 20, rng)
    hs = unit_directions(desc.m1, 20, seed=plan.seed + 2) * rng.uniform(0.3, 0.8, 20)[:, None]
    *witnesses, relaxed = mean_value_witnesses(jobs + [(u, xs, hs)], plan)

    records = []
    for check_id, inputs, tol, a, b in families:
        worst = float(np.max(np.concatenate([w.residual for w in witnesses[a:b]])))
        detail = next((w.detail for w in witnesses[a:b] if w.detail), "")
        records.append(CheckRecord.bounded(check_id, inputs, worst, tol, detail=detail))
    viol = lambda_subdiff_membership(u, relaxed.point, relaxed.p, lam, plan)
    worst = np.inf if relaxed.detail else float(np.maximum(0.0, np.max(viol)))  # NaN-safe, unlike max(0.0, nan)
    inputs = {"lambda": lam, "seed": plan.seed}
    records.append(CheckRecord.bounded("mvt/lambda-relaxed", inputs, worst, plan.tol.mvt_lambda, detail=relaxed.detail))
    return records, []


def dermax_records(plan):
    """Criterion 8: directional derivatives equal the hull support function
    and are subadditive, at 10 points per field, from one ``dermax_checks``
    call for all fields."""
    desc = build_group("heisenberg:1")
    records = []
    rng = plan.rng("dermax-points")
    jobs = [(u, ball(desc, plan.base_radius, 10, rng)) for u in smooth_suite(desc) + polyhedral_suite(desc)]
    plan50 = dataclasses.replace(plan, directions=50)  # the same hull stream: it is keyed by seed and shell_samples
    for (u, _), checks in zip(jobs, dermax_checks(jobs, plan50)):
        inputs = {"fn": u.label, "seed": plan.seed}
        records.append(CheckRecord.bounded(f"dermax/{u.label}", inputs, float(np.max(checks)), plan.tol.dermax))
    return records, []


def second_order_records(plan):
    """Criterion 9: the full second-order characterization at the model point."""
    desc = build_group("heisenberg:1")
    u = build_function(desc, "quad_vertical", alpha=1.0)
    rep = characterize_second_order(u, desc.identity(), plan)
    records = []
    A_target = np.array([[2.0, -0.5], [0.5, 2.0]])
    ext, exp = rep.extended, rep.expansion
    a_err = float(np.max(np.abs(ext.A - A_target))) if ext else np.inf
    h_err = float(np.max(np.abs(exp.hessian - 2 * np.eye(2)))) if exp else np.inf
    v_err = float(np.max(np.abs(exp.v2 - 1.0))) if exp else np.inf
    fit = plan.tol.fit
    min_eig = rep.metrics.get("min_eigenvalue", -np.inf)
    records += [
        CheckRecord.bounded("second-order/h1/extended-diff", {"fn": u.label}, a_err, fit),
        CheckRecord.bounded("second-order/h1/hessian", {"fn": u.label}, h_err, fit),
        CheckRecord.bounded("second-order/h1/v2", {"fn": u.label}, v_err, fit),
        CheckRecord(
            "second-order/h1/claim3",
            {"fn": u.label},
            rep.metrics.get("claim3_residual", np.inf),
            fit,
            bool(rep.claims.get("c3_identity", False)),
        ),
        CheckRecord("second-order/h1/psd", {"fn": u.label}, min_eig, -plan.tol.psd, min_eig >= -plan.tol.psd),
        CheckRecord(
            "second-order/h1/equivalence",
            {"fn": u.label},
            None,
            None,
            rep.equivalence == "both converge",
            detail=rep.equivalence,
        ),
    ]
    curves = []
    if exp is not None:
        curves += curve_points("second-order/h1/expansion-residual", exp.taus, exp.residuals)
    if ext is not None:
        curves += curve_points("second-order/h1/gradient-residual", ext.radii, ext.residuals)
        taus, excess, _ = mignot_check(u, desc.identity(), ext.grad, ext.A, plan)
        curves += curve_points("second-order/h1/mignot-excess", taus, excess)

    kink = build_function(desc, "max_affine")
    krep = characterize_second_order(kink, desc.identity(), plan)
    records.append(
        CheckRecord(
            "second-order/h1/kink-equivalence",
            {"fn": kink.label},
            None,
            None,
            krep.equivalence == "consistent: neither",
            detail=krep.equivalence,
        )
    )
    return records, curves


def euclidean_degeneration_records(plan):
    """Criterion 10: on abelian R^2 the extended differential is the
    quadratic form matrix and is symmetric."""
    desc = build_group("euclidean:2")
    S = np.array([[1.3, 0.4], [0.4, 0.9]])
    u = build_function(desc, "euclidean_quadratic", S=S)
    try:
        grad = gradient_with_certificate(u, desc.identity(), plan)
        A, detail = fit_extended_differential(u, desc.identity(), grad, plan).A, ""
    except NonSingletonSubdifferential as exc:  # no certified gradient at x: a failed check
        A, detail = np.full_like(S, np.nan), str(exc)
    err = float(np.max(np.abs(A - S)))
    skew = float(np.max(np.abs(A - A.T)))
    return [
        CheckRecord.bounded("euclidean/extended-diff", {"S": S.tolist()}, err, 1e-4, detail=detail),
        CheckRecord.bounded("euclidean/symmetry", {"S": S.tolist()}, skew, 1e-6, detail=detail),
    ], []


def mignot_records(plan):
    """Criterion 11: quotient hulls collapse onto the linearized gradient."""
    desc = build_group("heisenberg:1")
    records, curves = [], []
    x = desc.identity()
    for u in smooth_suite(desc):
        inputs = {"fn": u.label}
        try:
            grad = gradient_with_certificate(u, x, plan)
        except NonSingletonSubdifferential as exc:  # no certified gradient at x: a failed check
            records.append(CheckRecord.bounded(f"mignot/{u.label}", inputs, np.nan, plan.tol.mignot, detail=str(exc)))
            continue
        fit = fit_extended_differential(u, x, grad, plan)
        taus, excess, ok = mignot_check(u, x, grad, fit.A, plan)
        records.append(CheckRecord(f"mignot/{u.label}", inputs, float(excess[-1]), plan.tol.mignot, ok))
        curves += curve_points(f"mignot/{u.label}", taus, excess)
    return records, curves


def _cert_plan(plan):
    """``plan`` with criterion 12's coarser segment sample: its seed, base
    radius and tolerances stay the run's."""
    return dataclasses.replace(plan, directions=16, base_count=8, lambda_grid=5, segment_scales=(1.0, 0.3, 0.1))


def registry_certificate_records(plan):
    """Criterion 12: every built-in function is h-convex on the segments
    that ``_cert_plan(plan)`` samples, within the plan's h-convexity
    tolerance."""
    tol = plan.tol.hconvexity
    cert_plan = _cert_plan(plan)
    records = []
    desc = build_group("heisenberg:1")
    for name in ("affine", "quadratic", "quad_vertical", "max_affine", "one_norm"):
        worst = hconvexity_check(build_function(desc, name), cert_plan).max_violation
        records.append(CheckRecord.bounded(f"registry/certificate/{name}", {"fn": name}, worst, tol, inclusive=True))
    return records, []


CRITERIA = (
    group_law_records,
    heisenberg_closed_form_records,
    structure_constant_records,
    field_identity_records,
    hull_records,
    first_order_records,
    mean_value_records,
    dermax_records,
    second_order_records,
    euclidean_degeneration_records,
    mignot_records,
    registry_certificate_records,
)


def run_suite(seed=0, plan=None):
    """Run the whole battery under ``plan``, the default plan of ``seed``
    when None; returns (records, curves).  Raises ``ValueError`` when the
    plan's seed is not ``seed``."""
    plan = SamplingPlan(seed=seed) if plan is None else plan
    if plan.seed != seed:
        raise ValueError(f"the plan's seed {plan.seed} is not the run's seed {seed}")
    records, curves = [], []
    for fn in CRITERIA:
        r, c = fn(plan)
        records += r
        curves += c
    return records, curves
