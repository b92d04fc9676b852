"""Per-layer metrics derived from a ``Tracer``'s spans.

Spans of pass 0 are the traced set-up; passes 1..n are traced workload
passes, and every pass figure is a mean per traced pass.  Self time is a
span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from tracer import LAYERS
from workloads import KEY_BY_DESC_NAME

GROUPS = tuple(KEY_BY_DESC_NAME.values())
BUCKETS = ("b1", "b1e3", "b1e5")
CRITERIA = (
    "group_law",
    "heisenberg_closed_form",
    "structure_constant",
    "field_identity",
    "hull",
    "first_order",
    "mean_value",
    "dermax",
    "second_order",
    "euclidean_degeneration",
    "mignot",
    "registry_certificate",
)
LOWER, HIGHER = "lower", "higher"


def _spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [
        ("groups.product.calls", "count", LOWER),
        ("groups.product.points", "count", LOWER),
        ("groups.product.self_s", "s", LOWER),
    ]
    out += [(f"groups.product.ns_per_point.{g}.{b}", "ns", LOWER) for g in GROUPS for b in BUCKETS]
    out += [("groups.validate_descriptor.s", "s", LOWER)]
    out += [(f"fields.field_coefficients.s.{g}", "s", LOWER) for g in GROUPS]
    out += [
        ("jets.check_alij.calls", "count", LOWER),
        ("jets.check_alij.self_s", "s", LOWER),
        ("jets.lambda_max.self_s", "s", LOWER),
        ("sampling.calls", "count", LOWER),
    ]
    out += [(f"{layer}.self_s", "s", LOWER) for layer in LAYERS]
    out += [(f"hull.from_points.calls.d{d}", "count", LOWER) for d in (2, 3, 4)]
    out += [(f"hull.from_points.self_s.d{d}", "s", LOWER) for d in (2, 3, 4)]
    out += [(f"hull.vertices_per_point.d{d}", "ratio", HIGHER) for d in (2, 3)]
    out += [
        ("hull.hausdorff_distance.self_s", "s", LOWER),
        ("convexity.ScalarField.value.calls", "count", LOWER),
        ("convexity.ScalarField.value.points", "count", LOWER),
        ("convexity.ScalarField.value.self_s", "s", LOWER),
        ("convexity.mean_value_witness.calls", "count", LOWER),
        ("convexity.mean_value_witness.self_s", "s", LOWER),
        ("convexity.mean_value_witness.p50_ms", "ms", LOWER),
        ("convexity.mean_value_witness.tail_ms", "ms", LOWER),
        ("convexity.subdifferential_hull.calls", "count", LOWER),
        ("convexity.subdifferential_hull.self_s", "s", LOWER),
        ("convexity.dermax_check.self_s", "s", LOWER),
        ("convexity.first_order_characterization.self_s", "s", LOWER),
        ("convexity.lambda_subdiff_membership.self_s", "s", LOWER),
        ("second_order.characterize_second_order.calls", "count", LOWER),
        ("second_order.characterize_second_order.self_s", "s", LOWER),
        ("second_order.characterize_second_order.p50_ms", "ms", LOWER),
        ("second_order.gradient_with_certificate.calls", "count", LOWER),
        ("second_order.certifications_per_characterization", "ratio", LOWER),
        ("second_order.fit_expansion.self_s", "s", LOWER),
        ("second_order.fit_extended_differential.self_s", "s", LOWER),
        ("second_order.subdiff_quotient.self_s", "s", LOWER),
        ("registry.build_group.s", "s", LOWER),
        ("registry.build_function.s", "s", LOWER),
        ("reports.render_json.s", "s", LOWER),
    ]
    for c in CRITERIA:
        out += [
            (f"suite.{c}.s", "s", LOWER),
            (f"suite.{c}.product_points", "count", LOWER),
            (f"suite.{c}.value_points", "count", LOWER),
        ]
    out += [
        ("trace.untraced_wall_s", "s", LOWER),
        ("trace.traced_wall_s", "s", LOWER),
        ("trace.overhead_ratio", "ratio", LOWER),
    ]
    return out


SPEC = _spec()


def bucket(points):
    """Nearest of the batch sizes 1, 10^3 and 10^5 on a log scale."""
    if points < 32:
        return "b1"
    return "b1e3" if points < 10_000 else "b1e5"


def tail_percentile(n):
    """Highest whole percentile with at least ten samples beyond it."""
    return max(0, math.floor(100.0 * (1.0 - 10.0 / n))) if n > 10 else 0


def percentile(values, p):
    if not values:
        return 0.0
    s = sorted(values)
    k = min(len(s) - 1, max(0, math.ceil(p / 100.0 * len(s)) - 1))
    return s[k]


def derive(tracer, traced_passes, untraced_walls, traced_walls):
    """All per-layer metrics, as {name: (value, unit)}, plus notes."""
    names = tracer.names
    layer = [n.split(".", 1)[0] for n in names]
    crit_code = {i for i, n in enumerate(names) if n.startswith("suite.") and n.endswith("_records")}
    np_ = max(1, traced_passes)

    calls = defaultdict(int)
    self_ns = defaultdict(int)
    incl = defaultdict(list)  # name -> inclusive durations in passes, ns
    setup_ns = defaultdict(int)
    fc_first = {}
    layer_self = defaultdict(int)
    prod = defaultdict(lambda: [0, 0])  # (group, bucket) -> [self_ns, points]
    hull_dim = {}  # from_points span id -> dim
    hull = defaultdict(lambda: [0, 0, 0, 0])  # dim -> [calls, self_ns, points in, vertices out]
    hull_children = []
    parent_of, code_of = {}, {}
    work = []  # (span id, is_product, points)

    for code, sid, parent, t0, t1, child, pid, extra in tracer.spans:
        name = names[code]
        dur = t1 - t0
        if pid == 0:
            setup_ns[name] += dur
            if name == "fields.field_coefficients" and extra not in fc_first:
                fc_first[extra] = dur
            continue
        own = dur - child
        calls[name] += 1
        self_ns[name] += own
        layer_self[layer[code]] += own
        parent_of[sid] = parent
        code_of[sid] = code
        if name in ("convexity.mean_value_witness", "second_order.characterize_second_order") or code in crit_code:
            incl[name].append(dur)
        if name == "groups.product" and extra is not None:
            points, gname = extra
            cell = prod[(KEY_BY_DESC_NAME.get(gname), bucket(points))]
            cell[0] += own
            cell[1] += points
            work.append((sid, True, points))
        elif name == "convexity.ScalarField.value" and extra is not None:
            work.append((sid, False, extra))
        elif name == "hull.from_points" and extra is not None:
            dim, n_in, n_out = extra
            hull_dim[sid] = dim
            h = hull[dim]
            h[0] += 1
            h[1] += own
            h[2] += n_in
            h[3] += n_out
        elif layer[code] == "hull":
            hull_children.append((parent, own))
    for parent, own in hull_children:
        if parent in hull_dim:
            hull[hull_dim[parent]][1] += own

    crit_of = {}

    def criterion(sid):
        path = []
        while sid in parent_of and sid not in crit_of:
            if code_of[sid] in crit_code:
                crit_of[sid] = names[code_of[sid]]
                break
            path.append(sid)
            sid = parent_of[sid]
        found = crit_of.get(sid)
        for s in path:
            crit_of[s] = found
        return found

    crit_work = defaultdict(lambda: [0, 0])
    for sid, is_product, points in work:
        c = criterion(parent_of[sid])
        if c is not None:
            crit_work[c][0 if is_product else 1] += points

    m = {}
    per = 1.0 / np_
    s = 1e-9 * per
    m["groups.product.calls"] = calls["groups.product"] * per
    m["groups.product.points"] = sum(v[1] for v in prod.values()) * per
    m["groups.product.self_s"] = self_ns["groups.product"] * s
    for g in GROUPS:
        for b in BUCKETS:
            own, points = prod.get((g, b), (0, 0))
            m[f"groups.product.ns_per_point.{g}.{b}"] = own / points if points else 0.0
    m["groups.validate_descriptor.s"] = setup_ns["groups.validate_descriptor"] * 1e-9
    by_key = {KEY_BY_DESC_NAME.get(k): v for k, v in fc_first.items()}
    for g in GROUPS:
        m[f"fields.field_coefficients.s.{g}"] = by_key.get(g, 0) * 1e-9
    m["jets.check_alij.calls"] = calls["jets.check_alij"] * per
    m["jets.check_alij.self_s"] = self_ns["jets.check_alij"] * s
    m["jets.lambda_max.self_s"] = self_ns["jets.lambda_max"] * s
    m["sampling.calls"] = sum(v for k, v in calls.items() if k.startswith("sampling.")) * per
    for lay in LAYERS:
        m[f"{lay}.self_s"] = layer_self[lay] * s
    for d in (2, 3, 4):
        m[f"hull.from_points.calls.d{d}"] = hull[d][0] * per
        m[f"hull.from_points.self_s.d{d}"] = hull[d][1] * s
    for d in (2, 3):
        m[f"hull.vertices_per_point.d{d}"] = hull[d][3] / hull[d][2] if hull[d][2] else 0.0
    m["hull.hausdorff_distance.self_s"] = self_ns["hull.hausdorff_distance"] * s
    m["convexity.ScalarField.value.calls"] = calls["convexity.ScalarField.value"] * per
    m["convexity.ScalarField.value.points"] = sum(p for _, is_p, p in work if not is_p) * per
    m["convexity.ScalarField.value.self_s"] = self_ns["convexity.ScalarField.value"] * s
    mvw = incl["convexity.mean_value_witness"]
    tail = tail_percentile(len(mvw))
    m["convexity.mean_value_witness.calls"] = calls["convexity.mean_value_witness"] * per
    m["convexity.mean_value_witness.self_s"] = self_ns["convexity.mean_value_witness"] * s
    m["convexity.mean_value_witness.p50_ms"] = percentile(mvw, 50) * 1e-6
    m["convexity.mean_value_witness.tail_ms"] = percentile(mvw, tail) * 1e-6
    m["convexity.subdifferential_hull.calls"] = calls["convexity.subdifferential_hull"] * per
    for f in ("subdifferential_hull", "dermax_check", "first_order_characterization", "lambda_subdiff_membership"):
        m[f"convexity.{f}.self_s"] = self_ns[f"convexity.{f}"] * s
    cso = "second_order.characterize_second_order"
    m[f"{cso}.calls"] = calls[cso] * per
    m[f"{cso}.self_s"] = self_ns[cso] * s
    m[f"{cso}.p50_ms"] = percentile(incl[cso], 50) * 1e-6
    certs = calls["second_order.gradient_with_certificate"]
    m["second_order.gradient_with_certificate.calls"] = certs * per
    m["second_order.certifications_per_characterization"] = certs / calls[cso] if calls[cso] else 0.0
    for f in ("fit_expansion", "fit_extended_differential", "subdiff_quotient"):
        m[f"second_order.{f}.self_s"] = self_ns[f"second_order.{f}"] * s
    m["registry.build_group.s"] = setup_ns["registry.build_group"] * 1e-9
    m["registry.build_function.s"] = setup_ns["registry.build_function"] * 1e-9
    m["reports.render_json.s"] = self_ns["reports.render_json"] * s
    for c in CRITERIA:
        full = f"suite.{c}_records"
        m[f"suite.{c}.s"] = sum(incl.get(full, [])) * 1e-9 * per
        m[f"suite.{c}.product_points"] = crit_work[full][0] * per
        m[f"suite.{c}.value_points"] = crit_work[full][1] * per
    untraced = statistics.fmean(untraced_walls)
    traced = statistics.fmean(traced_walls)
    m["trace.untraced_wall_s"] = untraced
    m["trace.traced_wall_s"] = traced
    m["trace.overhead_ratio"] = traced / untraced if untraced else 0.0

    units = {name: unit for name, unit, _ in SPEC}
    notes = {
        "traced_passes": traced_passes,
        "mean_value_witness_samples": len(mvw),
        "mean_value_witness_tail_percentile": tail,
        "characterize_second_order_samples": len(incl[cso]),
    }
    return {k: (v, units[k]) for k, v in m.items()}, notes
