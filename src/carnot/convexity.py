"""Numerical first-order analysis of h-convex functions.

A function is h-convex when it is classically convex along every horizontal
line segment.  Every field here is defined on the whole group, so every
segment, shell and stencil is admissible.  This module tests that property by
sampling, estimates subdifferential sets as convex hulls of gradients
sampled at nearby differentiability points, evaluates membership in the
(lambda-)subdifferential, computes one-sided horizontal directional
derivatives, and produces mean-value witnesses: a parameter t and a
subgradient p at the interior point x * delta_t h with <p, h> equal to the
secant slope.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NonConvexSliceError, RankDeficientDesign, SamplingError
from .hull import centroids, diameters, supports
from .polynomials import _per_descriptor
from .reports import curve_converged
from .sampling import (
    SamplingPlan,
    ball,
    quasi_sphere,
    unit_ball,
    unit_directions,
)

__all__ = [
    "ScalarField",
    "hconvexity_check",
    "subdifferential_hulls",
    "lambda_subdiff_membership",
    "dermax_checks",
    "mean_value_witnesses",
    "MeanValueWitness",
    "first_order_residual_ladder",
    "first_order_characterizations",
]


@dataclass(frozen=True)
class ScalarField:
    """An evaluatable function on the whole of a stratified group.

    ``fn`` maps point arrays with trailing axis ``desc.dim`` to value arrays,
    ``grad_h`` is an optional analytic horizontal gradient with the same
    batching convention.
    """

    desc: object
    fn: object
    label: str = "u"
    grad_h: object = None

    def value(self, pts):
        return np.asarray(self.fn(np.asarray(pts, dtype=float)), dtype=float)

    def gradient(self, pts):
        if self.grad_h is None:
            raise ValueError(f"{self.label!r} carries no analytic gradient")
        return np.asarray(self.grad_h(np.asarray(pts, dtype=float)), dtype=float)


@dataclass(frozen=True)
class HConvexityReport:
    max_violation: float  # clamped at zero: 0 means consistent with h-convexity
    samples: int
    worst: dict | None


# -- horizontal lines: every segment x (t h) below is read off its line ---------


def _horizontal_lines(desc, xs, hs):
    """The coefficients [x, b1, b2] (..., 3, n) of the lines x (t h) = x +
    t b1 + t^2 b2 (no BCH term holds t h more than twice) of the points
    ``xs`` (..., n) and horizontal rows ``hs`` (..., m1), broadcast against
    each other, from one product at t = 1 and -1, and their ends x h."""
    hfull = desc.embed_horizontal(hs)
    ends = desc.product(xs[..., None, :], np.stack([hfull, -hfull], axis=-2))  # (..., 2, n)
    line = np.empty(ends.shape[:-2] + (3, desc.dim))
    line[..., 0, :] = xs
    line[..., 1, :] = 0.5 * (ends[..., 0, :] - ends[..., 1, :])
    line[..., 2, :] = 0.5 * (ends[..., 0, :] + ends[..., 1, :]) - xs
    return line, ends[..., 0, :]


def _on_lines(t, line):
    """The points x + t b1 + t^2 b2 (..., P, n) of the lines ``line``
    (..., 3, n) at the parameters ``t`` (..., P), broadcast."""
    powers = np.empty(t.shape + (3,))
    powers[..., 0], powers[..., 1], powers[..., 2] = 1.0, t, t * t
    return powers @ line


# -- h-convexity ---------------------------------------------------------------


@_per_descriptor
def _spanning_directions(desc, count):
    """``unit_directions(desc.m1, count)``; ``RankDeficientDesign`` unless they span the horizontal layer."""
    dirs = unit_directions(desc.m1, count)
    if np.linalg.matrix_rank(dirs) < desc.m1:
        raise RankDeficientDesign(f"{count} directions do not span the {desc.m1}-dim horizontal layer")
    return dirs


@_per_descriptor
def _hconvexity_segments(desc, seed, count, radius, directions):
    """The segments' plan-fixed parts for ``hconvexity_check`` under the
    plans with this seed, base count, base radius and direction count: the
    base points (the identity, then one ``plan.rng("hconvexity-base")``
    ball draw, cut to ``count`` rows), the unit directions, and the lines
    (count, D, 3, n) of every (point, direction) pair."""
    draw = ball(desc, radius, count, SamplingPlan(seed=seed).rng("hconvexity-base"))
    xs = np.concatenate([desc.identity()[None], draw])[:count]
    dirs = _spanning_directions(desc, directions)
    line, _ = _horizontal_lines(desc, xs[:, None, :], dirs)
    return xs, dirs, line


def hconvexity_check(u, plan):
    """Sampled violation of midpoint convexity along horizontal segments.

    For base points x, unit horizontal h, segment scales s and a grid of
    lambda in [0, 1], evaluates u(x (t h)) - lambda u(x (s h)) - (1 - lambda)
    u(x) at t = s lambda on the line of (x, h) and reports the largest
    positive value, ``worst`` the first in (x, h, s, lambda) order.
    Non-finite values count as violations of +inf.  Raises
    ``RankDeficientDesign`` when the plan's directions do not span the
    horizontal layer, which would leave some segments untested.  The
    points, directions and lines come from ``_hconvexity_segments``, cached
    per descriptor, so only the evaluations are the field's own.
    """
    xs, dirs, line = _hconvexity_segments(u.desc, plan.seed, plan.base_count, plan.base_radius, plan.directions)
    lams = np.linspace(0.0, 1.0, plan.lambda_grid)
    scales = np.asarray(plan.segment_scales)
    vals = u.value(_on_lines((scales[:, None] * lams).ravel(), line)).reshape(len(xs), len(dirs), len(scales), -1)
    viol = vals - (lams * vals[..., -1:] + (1 - lams) * vals[..., :1])  # lambda = 0 and 1 are the ends
    viol = np.where(np.isfinite(viol), viol, np.inf)
    b, d, s, l = np.unravel_index(int(np.argmax(viol)), viol.shape)
    worst = {"x": xs[b].tolist(), "h": (scales[s] * dirs[d]).tolist(), "lambda": float(lams[l])}
    return HConvexityReport(max(0.0, float(viol[b, d, s, l])), viol.size, worst)


# -- gradients -----------------------------------------------------------------


_FD_STEP = 1e-6  # the central-difference step where no shell bounds it
_FD_STABILITY_RTOL = 1e-3  # the full and the halved step agree within this


def _fd_gradients_batch(u, pts, step, rtol):
    """Two-step central differences for a batch of points, with one step
    for all points or one per point.

    Returns (gradients, stable) where ``stable`` flags agreement between the
    full and the halved step within ``rtol`` -- the operational surrogate for
    "point of differentiability".
    """
    desc = u.desc
    m1 = desc.m1
    eye = np.eye(m1)
    step = np.asarray(step, dtype=float)[..., None]  # (1,) or (K, 1)
    offs = step[..., None] * np.concatenate([eye, -eye, 0.5 * eye, -0.5 * eye])
    offs = desc.embed_horizontal(offs)  # (4 m1, n) or (K, 4 m1, n)
    stencil = desc.product(pts[:, None, :], offs)  # (K, 4 m1, n)
    vals = u.value(stencil)
    g_full = (vals[:, :m1] - vals[:, m1 : 2 * m1]) / (2 * step)
    g_half = (vals[:, 2 * m1 : 3 * m1] - vals[:, 3 * m1 :]) / step
    dev = np.linalg.norm(g_full - g_half, axis=-1)
    stable = dev <= rtol * (1.0 + np.linalg.norm(g_half, axis=-1))
    return g_half, stable


def _sampled_gradients(u, pts, radius, plan):
    """Horizontal gradients at sampled points of shells of the given radius
    (one for all points or one per point), with the flags of the stable
    ones: analytic when the plan allows and u has them (all stable), else
    central differences with a step no larger than a tenth of the radius
    (an infinite radius keeps ``_FD_STEP``)."""
    if plan.use_analytic_gradient and u.grad_h is not None:
        return u.gradient(pts), np.ones(len(pts), dtype=bool)
    return _fd_gradients_batch(u, pts, np.minimum(_FD_STEP, radius / 10.0), _FD_STABILITY_RTOL)


@_per_descriptor
def _hull_stream(desc, seed, count):
    """The generator of ``plan.rng("subdiff-hull")`` for the plans with this
    seed, and the list of its ``unit_ball`` draws of ``count`` points so far."""
    return SamplingPlan(seed=seed).rng("subdiff-hull"), []


def _shell_gradients(runs, xs, radius, plan):
    """Horizontal gradients at ``plan.shell_samples`` sampled
    differentiability points of B(x, r) for every row x of ``xs``, as one
    (K, count, m1) array; ``radius`` is one r for all rows (dilating the
    draw once) or one per row.  ``runs`` lists (field, row count) pairs of
    fields on one group that cover the rows in order (``[(u, len(xs))]``
    for one field): each round takes one product for all rows and one
    gradient sample per field on its run.

    Every centre sees the same draws: retry round k takes the k-th ball
    sample of a fresh ``plan.rng("subdiff-hull")``, read from the stream
    that ``_hull_stream`` caches per descriptor, seed and count, and
    evaluates it only around the centres that still lack ``count``
    gradients, so a centre's gradients do not depend on the other rows of
    the batch.  Each stable gradient fills its row's next slot, in draw
    order; a row that ends short repeats its last stable gradient, which
    changes no support value, diameter or centroid.
    """
    desc = runs[0][0].desc
    stops = list(itertools.accumulate((n for _, n in runs), initial=0))  # run j holds rows stops[j]:stops[j + 1]
    xs = np.asarray(xs, dtype=float)
    radius = np.asarray(radius, dtype=float)
    count = plan.shell_samples
    rng, draws = _hull_stream(desc, plan.seed, count)
    out = np.empty((len(xs), count, desc.m1))
    have = np.zeros(len(xs), dtype=int)
    for k in range(4):
        todo = np.flatnonzero(have < count)
        if len(todo) == 0:
            break
        if len(draws) == k:
            draws.append(unit_ball(desc, count, rng))
        unit, radial = draws[k]
        r = radius if radius.ndim == 0 else radius[todo, None]
        pts = desc.product(xs[todo, None, :], desc.dilate(r * radial, unit)).reshape(-1, desc.dim)  # (T count, n)
        r = radius if radius.ndim == 0 else np.repeat(radius[todo], count)
        cut = np.searchsorted(todo, stops).tolist()  # run j's centres are todo[cut[j]:cut[j + 1]]
        for (f, _), a, b in zip(runs, cut[:-1], cut[1:]):
            if b == a:
                continue
            part = slice(a * count, b * count)
            g, ok = _sampled_gradients(f, pts[part], r if r.ndim == 0 else r[part], plan)
            g, ok = g.reshape(b - a, count, -1), ok.reshape(b - a, count)
            if k == 0 and ok.all():  # every draw stable, as analytic gradients are: no slots to find
                out[a:b], have[a:b] = g, count  # round 0 takes every centre, in order
                continue
            rows = todo[a:b]
            slot = have[rows, None] + np.cumsum(ok, axis=1) - 1
            i, j = np.nonzero(ok & (slot < count))
            out[rows[i], slot[i, j]] = g[i, j]
            have[rows] = np.minimum(slot[:, -1] + 1, count)
    if np.any(have == 0):
        f, _ = runs[int(np.searchsorted(stops, np.argmin(have), side="right")) - 1]
        raise SamplingError(f"no stable gradient samples near the given point of {f.label!r}")
    short = np.flatnonzero(have < count)
    out[short] = out[short[:, None], np.minimum(np.arange(count), have[short, None] - 1)]
    return out


# -- subdifferential hulls and membership ---------------------------------------


def lambda_subdiff_membership(u, xs, P, lam, plan):
    """Max violation of u(xh) >= u(x) + <p, h> - lam |h|^2 over sampled h, at
    every row x of ``xs`` (K, n): a (K,) array, from one product and two value
    calls over all rows.

    Each row of ``P`` (K, m1) is one subgradient, of ``P`` (K, k, m1) k of
    them, whose largest violation counts; over the generating points of a hull it
    is the maximum over the hull, since the violation is convex in p.  The
    offsets h are the plan's directions and coordinate axes at every segment
    scale and shell radius.  Each row has its own evaluations, and <p, h>
    is summed coordinate by coordinate in index order, as the built-in
    fields sum theirs, so a row's violation does not depend on the other
    rows, and an affine field meets its own gradient with no round-off.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    desc = u.desc
    xs = np.asarray(xs, dtype=float)
    P = np.asarray(P, dtype=float)
    P = P[:, None, :] if P.ndim == 2 else P  # (K, k, m1)
    dirs = np.concatenate([unit_directions(desc.m1, plan.directions), np.eye(desc.m1), -np.eye(desc.m1)])
    scales = np.asarray(tuple(plan.segment_scales) + tuple(plan.radii))
    hs = (dirs[:, None, :] * scales[:, None]).reshape(-1, desc.m1)  # direction-major, as the lines' points
    line, _ = _horizontal_lines(desc, xs[:, None, :], dirs)  # (K, D, 3, n)
    uxh = u.value(_on_lines(scales, line)).reshape(len(xs), -1)  # (K, H)
    ph = P[..., 0, None] * hs[:, 0]  # <p, h> (K, k, H)
    for i in range(1, desc.m1):
        ph = ph + P[..., i, None] * hs[:, i]
    viol = u.value(xs[:, None, :])[:, :, None] + ph - lam * np.sum(hs * hs, axis=-1) - uxh[:, None, :]
    return np.max(viol, axis=(1, 2))


def subdifferential_hulls(u, xs, plan):
    """The subdifferential hull at every row of ``xs``, as the (K, count, m1)
    array of its generating points: the gradients sampled at
    differentiability points of the finest shell around that row, from one
    shared sample.

    Each hull is one row of the ``_shell_gradients`` array, repeats and
    all, and independent of the other rows of the batch.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    return _shell_gradients([(u, len(xs))], xs, plan.radii[-1], plan)


# -- directional derivatives -----------------------------------------------------


_DD_LAMBDAS = 1e-2 * 2.0 ** -np.arange(10)  # the lambda ladder of the difference quotients
_MONOTONE_SLACK = 1e-9  # relative slack of the ladder's monotonicity


def _directional_derivatives(u, xs, line):
    """One-sided derivatives of t -> u(x delta_t h) at t = 0+, for every row
    x of ``xs`` (K, n) along its lines ``line`` (K, ..., D, 3, n) from
    ``_horizontal_lines``, one per h, as a (K, ..., D) array.

    The difference quotients (u(x (lam h)) - u(x)) / lam on the lambda
    ladder of a convex slice are nonincreasing (within a slack scaled per
    row and per block of D lines) as lambda decreases, else the function is
    flagged as not h-convex along h.  Each limit is Richardson-extrapolated
    from the two finest quotients.  Every evaluation keeps a leading row
    axis, so a row's derivatives do not depend on the other rows of the
    batch.
    """
    vals = u.value(_on_lines(_DD_LAMBDAS, line))  # (K, ..., D, S)
    Q = (vals - u.value(xs).reshape((len(xs),) + (1,) * (vals.ndim - 1))) / _DD_LAMBDAS
    slack = _MONOTONE_SLACK * (1.0 + np.max(np.abs(Q), axis=(-2, -1)))
    if np.any(np.diff(Q, axis=-1) > slack[..., None, None]):
        raise NonConvexSliceError("difference quotients increase along the ladder")
    return 2 * Q[..., -1] - Q[..., -2]


def dermax_checks(jobs, plan):
    """Compare directional derivatives with the hull support function at
    every row x of every job ``(u, xs)``: one field u with its rows ``xs``
    (K, n).  All jobs lie on one group, else ``ValueError``.

    Also verifies subadditivity of h -> u'(x, h) on sampled direction pairs.
    Returns one (gaps, subadd) per job, in job order, each (K,): the
    largest derivative/support gap and the largest subadditivity violation
    (clamped at zero) of each row.  The hulls of all rows of all jobs come
    from one shared sample, and the lines of every row along the directions
    and their pair sums from one product; each job evaluates its field on
    its own rows, with the monotone slack of the directions and of the pair
    sums scaled apart, so a row's results do not depend on the other rows
    or jobs.  The batch raises the first error it meets for the whole batch,
    ``RankDeficientDesign`` for directions that do not span the layer.
    """
    desc = jobs[0][0].desc
    if any(u.desc is not desc for u, _ in jobs):
        raise ValueError("dermax_checks takes jobs on one group")
    xs = [np.atleast_2d(np.asarray(x, dtype=float)) for _, x in jobs]
    X = np.concatenate(xs)
    dirs = _spanning_directions(desc, plan.directions)
    V = _shell_gradients([(u, len(x)) for (u, _), x in zip(jobs, xs)], X, plan.radii[-1], plan)
    pair_sum = dirs + np.roll(dirs, 1, axis=0)
    line, _ = _horizontal_lines(desc, X[:, None, None, :], np.stack([dirs, pair_sum]))  # (K, 2, D, 3, n)
    out, stop = [], 0
    for (u, _), x in zip(jobs, xs):
        rows = slice(stop, stop + len(x))
        stop += len(x)
        d = _directional_derivatives(u, x, line[rows])
        dd, dd_sum = d[:, 0], d[:, 1]  # (K, D) each
        gaps = np.max(np.abs(dd - supports(V[rows], dirs)), axis=-1)
        subadd = np.maximum(0.0, np.max(dd_sum - (dd + np.roll(dd, 1, axis=-1)), axis=-1))  # NaN-safe
        out.append((gaps, subadd))
    return out


# -- mean value witnesses ----------------------------------------------------------


_SECTION_PROBES = 16  # interior probes per step of the section search
_SUPPORT_GAP = 1e-2  # how far a secant slope may lie outside the sampled support range


def _section_steps(plan):
    """The section search's step count: each step keeps 2 of the 17 cells of
    its bracket, so the least k >= 1 with (2/17)^k <= plan.radii[-1] / 50."""
    shrink, k = 2 / (_SECTION_PROBES + 1), 1
    while shrink**k > plan.radii[-1] / 50:
        k += 1
    return k


@dataclass(frozen=True)
class MeanValueWitness:
    """The witnesses of one job's K segments, and the message of the first
    row whose secant slope left its sampled support range ('' if none)."""

    t: np.ndarray
    p: np.ndarray
    residual: np.ndarray
    point: np.ndarray
    detail: str


def mean_value_witnesses(jobs, plan):
    """Mean-value witnesses for the segments x * [0, h] of every job
    ``(u, xs, hs)``: one field u with its rows ``xs`` (K, n) and ``hs``
    (K, m1).  Jobs may lie on different groups.  Returns one
    ``MeanValueWitness`` per job, in job order: t (K,), p (K, m1), residual
    (K,), point (K, n) and detail.

    For each row: a parameter t* in [0, 1] and p in the subdifferential
    hull at the point x * delta_{t*} h with <p, h> equal to the secant slope
    sigma = u(xh) - u(x).  The deviation psi(t) = u(x (t h)) - u(x) - t sigma
    vanishes at both ends, so it has an interior extremum; there the
    one-sided derivatives bracket sigma.  A section search locates it for
    all rows of all jobs in lockstep on the segments' lines x + t b1 + t^2
    b2: each step evaluates ``_SECTION_PROBES`` equally spaced interior
    probes of every bracket, with one ``_on_lines`` per group and one value
    call per job, and keeps the two cells around the best probe (two probes
    make it a ternary search).  The first step's probes, k/17 of [0, 1],
    give each row its sign (the probe of largest |psi|) and its starting
    bracket.  The search runs ``_section_steps(plan)`` steps, the least k
    with (2/17)^k <= plan.radii[-1] / 50, so the final bracket is fifty
    times finer than the shell the witness hull is sampled on: 7 steps under
    the default plan, more on a finer shell.  For h-convex u, psi is convex
    with zero ends, so its extremum is its minimum, and psi vanishing at all
    first probes makes it vanish everywhere: such a flat row keeps t* = 1/2.
    The hull at x * delta_{t*} h is intersected with the hyperplane
    <., h> = sigma (nearest vertex if sigma falls just outside the sampled
    support range).

    The rows are held group by group (``build_group`` shares descriptors,
    so a group is one descriptor object), each job one run of rows: a group
    takes one product for its lines and, per retry round of its hulls, one
    for the shells around all its rows, and each field samples its
    gradients on its own run.  Every row keeps its own draws and
    evaluations, so its witness does not depend on the other rows or jobs.

    Failures are data.  A non-finite secant slope, psi value at any probe
    or hull gradient, and a secant slope outside the row's sampled support
    range by more than ``_SUPPORT_GAP`` give residual +inf and p =
    NaN; the last also sets the job's ``detail``.  For a u that is not
    h-convex (a user field through CLI ``mvt``) the search may stop at a
    local extremum; the support-range check then turns a wrong witness into
    a failed row or a residual.  Only ``SamplingError``, when a hull gets
    no gradient samples, ends the call.
    """
    by_desc = {}
    for j, (u, _, _) in enumerate(jobs):
        by_desc.setdefault(id(u.desc), []).append(j)
    order = [j for js in by_desc.values() for j in js]  # group-major: each group and each job is one run of rows
    fields, xs, hs = zip(*(jobs[j] for j in order))
    stops = np.cumsum([0] + [len(x) for x in xs])  # run q holds rows stops[q]:stops[q + 1]
    ux, sigma = np.empty(stops[-1]), np.empty(stops[-1])
    groups, q0 = [], 0  # (descriptor, its runs q0:q1, their lines and hs)
    for js in by_desc.values():
        q1, desc = q0 + len(js), fields[q0].desc
        H = np.concatenate(hs[q0:q1])
        line, xh = _horizontal_lines(desc, np.concatenate(xs[q0:q1]), H)
        for q in range(q0, q1):
            a, b = stops[q], stops[q + 1]
            ux[a:b] = fields[q].value(xs[q])
            sigma[a:b] = fields[q].value(xh[a - stops[q0] : b - stops[q0]]) - ux[a:b]
        groups.append((desc, q0, q1, line, H))
        q0 = q1

    bad = ~np.isfinite(sigma)
    t_star = np.full(stops[-1], 0.5)
    frac = np.arange(1, _SECTION_PROBES + 1) / (_SECTION_PROBES + 1)
    # the search runs on compact copies of its rows, gathered again only when a row leaves
    rows = np.flatnonzero(~bad)
    cut = np.searchsorted(rows, stops)  # run q holds compact rows cut[q]:cut[q + 1]
    Ls = [line[rows[cut[q0] : cut[q1]] - stops[q0]] for _, q0, q1, line, _ in groups]
    u0, s, lo, hi = ux[rows], sigma[rows], np.zeros(len(rows)), np.ones(len(rows))
    for step in range(_section_steps(plan)):
        if len(rows) == 0:
            break
        probes = lo[:, None] + (hi - lo)[:, None] * frac
        vals = np.empty_like(probes)
        for (_, q0, q1, _, _), L in zip(groups, Ls):
            if cut[q1] > cut[q0]:
                pts = _on_lines(probes[cut[q0] : cut[q1]], L)
                for q in range(q0, q1):
                    if cut[q + 1] > cut[q]:
                        vals[cut[q] : cut[q + 1]] = fields[q].value(pts[cut[q] - cut[q0] : cut[q + 1] - cut[q0]])
        psi = vals - u0[:, None] - s[:, None] * probes
        r = np.arange(len(rows))
        leave = ~np.isfinite(psi).all(axis=-1)
        bad[rows[leave]] = True
        if step == 0:
            peak = psi[r, np.abs(psi).argmax(axis=-1)]
            sign = np.where(peak > 0, 1.0, -1.0)
            leave |= np.abs(peak) < 1e-13 * (1.0 + np.abs(u0) + np.abs(s))  # flat: t* stays 1/2
        j = (psi * sign[:, None]).argmax(axis=-1)
        edges = np.concatenate([lo[:, None], probes, hi[:, None]], axis=1)
        lo, hi = edges[r, j], edges[r, j + 2]
        if leave.any():
            keep = ~leave
            Ls = [L[keep[cut[q0] : cut[q1]]] for (_, q0, q1, _, _), L in zip(groups, Ls)]
            rows, u0, s, lo, hi, sign = (a[keep] for a in (rows, u0, s, lo, hi, sign))
            cut = np.searchsorted(rows, stops)
    t_star[rows] = 0.5 * (lo + hi)

    residual = np.full(stops[-1], np.inf)
    detail = [""] * len(order)
    points, ps = [], []  # per run
    for desc, q0, q1, line, H in groups:
        g0, g1 = stops[q0], stops[q1]
        ys = _on_lines(t_star[g0:g1, None], line)[:, 0]
        p = np.full((g1 - g0, desc.m1), np.nan)
        good = np.flatnonzero(~bad[g0:g1])
        runs = [(fields[q], np.count_nonzero(~bad[stops[q] : stops[q + 1]])) for q in range(q0, q1)]
        V = _shell_gradients(runs, ys[good], plan.radii[-1], plan)
        finite = np.all(np.isfinite(V), axis=(1, 2))
        h, s = H[good], sigma[g0 + good]
        support_vals = np.einsum("krm,km->kr", V, h)
        smin, smax = np.min(support_vals, axis=-1), np.max(support_vals, axis=-1)
        outside = finite & ((s < smin - _SUPPORT_GAP) | (s > smax + _SUPPORT_GAP))
        run = np.searchsorted(stops, g0 + good, side="right") - 1
        for i in np.flatnonzero(outside):
            if not detail[run[i]]:
                bounds = f"[{smin[i]:.4g}, {smax[i]:.4g}]"
                detail[run[i]] = f"secant slope {s[i]:.4g} outside sampled support range {bounds}"
        r = np.arange(len(good))
        v_lo = V[r, np.argmin(support_vals, axis=-1)]
        v_hi = V[r, np.argmax(support_vals, axis=-1)]
        span = np.where(smax > smin, smax - smin, 1.0)
        inner = v_lo + ((s - smin) / span)[:, None] * (v_hi - v_lo)
        pg = np.where((s <= smin)[:, None], v_lo, np.where((s >= smax)[:, None], v_hi, inner))
        ok = finite & ~outside
        p[good[ok]] = pg[ok]
        residual[g0 + good[ok]] = np.abs(s - np.einsum("km,km->k", pg, h))[ok]
        points += [ys[stops[q] - g0 : stops[q + 1] - g0] for q in range(q0, q1)]
        ps += [p[stops[q] - g0 : stops[q + 1] - g0] for q in range(q0, q1)]
    out = [None] * len(jobs)
    for q, j in enumerate(order):
        a, b = stops[q], stops[q + 1]
        out[j] = MeanValueWitness(t_star[a:b], ps[q], residual[a:b], points[q], detail[q])
    return out


# -- first-order characterization ---------------------------------------------------


@_per_descriptor
def _ladder_offsets(desc, directions, radii):
    """The offsets w (R, W, n) of ``first_order_residual_ladder``: the unit
    quasi-sphere of ``directions`` points dilated to every radius."""
    return desc.dilate(np.asarray(radii, dtype=float)[:, None], quasi_sphere(desc, directions, seed=11))


def first_order_residual_ladder(u, xs, P, plan):
    """sup_w |u(xw) - u(x) - <p, pi_1 w>| / ||w|| over shrinking spheres, for
    every row x of ``xs`` (K, n) with p the same row of ``P`` (K, m1).

    Returns (K, len(plan.radii)).  One product and one value call serve all
    rows and radii, on the offsets of ``_ladder_offsets``, cached per
    descriptor.  Every evaluation keeps a leading row axis, so a row's
    ladder does not depend on the other rows of the batch.
    """
    desc = u.desc
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    P = np.atleast_2d(np.asarray(P, dtype=float))
    rho = np.asarray(plan.radii, dtype=float)
    w = _ladder_offsets(desc, plan.directions, plan.radii)  # (R, W, n)
    pts = desc.product(xs[:, None, None, :], w)  # (K, R, W, n)
    lin = np.sum(w[..., : desc.m1] * P[:, None, None, :], axis=-1)
    ux = u.value(xs[:, None, :])[:, :, None]  # (K, 1, 1)
    return np.max(np.abs(u.value(pts) - ux - lin) / rho[:, None], axis=-1)


def first_order_characterizations(u, xs, plan):
    """Singleton subdifferential versus vanishing first-order residual, at
    every row of ``xs``.

    The two sides of the characterization are computed independently: the
    hull diameter against the singleton tolerance, and the residual ladder
    by ``curve_converged`` below 5% of its coarsest value (at least 1e-9).
    Returns (diameters, ladders, singleton, converges), of shapes (K,),
    (K, len(plan.radii)), (K,) and (K,).  The hulls of all rows come from
    one shared sample.  The batch raises the first error it meets for the
    whole batch.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    V = _shell_gradients([(u, len(xs))], xs, plan.radii[-1], plan)
    diams = diameters(V)
    ladders = first_order_residual_ladder(u, xs, centroids(V), plan)
    converges = np.array([curve_converged(ladder, max(1e-9, 0.05 * ladder[0])) for ladder in ladders], dtype=bool)
    return diams, ladders, diams < plan.tol.singleton_diameter, converges

