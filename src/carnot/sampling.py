"""Deterministic sampling plans and point generators.

Shell and ball samples are drawn from seeded generators; direction sets use
low-discrepancy constructions in low dimension (golden-angle circle,
Fibonacci sphere, Halton-driven layer weights) so that repeated runs with
the same plan are bit-identical.
"""

from __future__ import annotations

import numbers
import zlib
from dataclasses import dataclass, field, fields

import numpy as np

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# The least value of every integer field of a sampling plan.  A midpoint
# test needs a lambda strictly inside (0, 1).
_PLAN_COUNTS = {"shell_samples": 1, "directions": 1, "seed": 0, "base_count": 1, "lambda_grid": 3}
_PLAN_REALS = ("base_radius",)


def _positive_finite(v):
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and 0 < v < np.inf


def halton(count, dim, start=1):
    """The first ``count`` points of the Halton sequence in [0,1)^dim."""
    out = np.empty((count, dim))
    for d in range(dim):
        base = _PRIMES[d % len(_PRIMES)]
        for k in range(count):
            i, f, x = start + k, 1.0, 0.0
            while i > 0:
                f /= base
                x += f * (i % base)
                i //= base
            out[k, d] = x
    return out


def unit_directions(dim, count, seed=0):
    """Deterministic, well-spread unit vectors on the Euclidean sphere."""
    if dim == 1:
        return np.array([[1.0], [-1.0]] * ((count + 1) // 2))[:count]
    if dim == 2:
        golden = (1 + 5**0.5) / 2
        ang = 2 * np.pi * ((np.arange(count) * golden + seed * golden**2) % 1.0)
        return np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    if dim == 3:
        k = np.arange(count) + 0.5
        z = 1 - 2 * k / count
        r = np.sqrt(np.maximum(0.0, 1 - z * z))
        ang = np.pi * (1 + 5**0.5) * (k + seed)
        return np.stack([r * np.cos(ang), r * np.sin(ang), z], axis=-1)
    rng = np.random.default_rng(seed + 1_000_003 * dim)
    v = rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def quasi_sphere(desc, count, seed=0):
    """Points of homogeneous norm exactly 1, spread over all layers.

    Layer weights t_s >= 0 with sum 1 come from a Halton simplex sample; the
    layer-s block has Euclidean length t_s**s so that the norm is exactly
    sum_s t_s = 1.
    """
    step = desc.step
    if step == 1:
        return unit_directions(desc.dim, count, seed)
    u = halton(count, step - 1, start=17 + 101 * seed)
    knots = np.sort(u, axis=1)
    knots = np.concatenate([np.zeros((count, 1)), knots, np.ones((count, 1))], axis=1)
    weights = np.diff(knots, axis=1)  # rows on the simplex
    pts = np.zeros((count, desc.dim))
    for s in range(1, step + 1):
        sl = desc.layer_slice(s)
        dims = sl.stop - sl.start
        dirs = unit_directions(dims, count, seed + 7 * s)
        pts[:, sl] = dirs * (weights[:, s - 1] ** s)[:, None]
    return pts


def sphere_shell(desc, radius, count, rng):
    """Seeded random points of homogeneous norm ``radius``."""
    step = desc.step
    if step == 1:
        v = rng.standard_normal((count, desc.dim))
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        return radius * v
    w = rng.dirichlet(np.ones(step), size=count)
    pts = np.zeros((count, desc.dim))
    for s in range(1, step + 1):
        sl = desc.layer_slice(s)
        dims = sl.stop - sl.start
        v = rng.standard_normal((count, dims))
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        pts[:, sl] = v * (w[:, s - 1] ** s)[:, None]
    return desc.dilate(np.full(count, radius), pts)


def unit_ball(desc, count, rng):
    """A ``ball`` draw before its scaling: points of the unit shell and the
    radial factor of each, uniform in the unit ball's volume."""
    pts = sphere_shell(desc, 1.0, count, rng)
    return pts, rng.uniform(size=count) ** (1.0 / desc.homogeneous_dim)


def ball(desc, radius, count, rng):
    """Seeded random points of homogeneous norm <= ``radius``."""
    pts, radial = unit_ball(desc, count, rng)
    return desc.dilate(radius * radial, pts)


@dataclass(frozen=True)
class Tolerances:
    """The thresholds that the records compare their metrics with."""

    membership: float = 1e-3
    singleton_diameter: float = 1e-3
    fit: float = 1e-3
    mignot: float = 1e-2
    dermax: float = 1e-2
    hconvexity: float = 1e-10
    psd: float = 1e-6
    mvt_smooth: float = 1e-8
    mvt_polyhedral: float = 1e-4
    mvt_lambda: float = 1e-3

    def __post_init__(self):
        for f in fields(self):
            if not _positive_finite(getattr(self, f.name)):
                raise ValueError(f"tolerance {f.name} must be a positive finite real")


@dataclass(frozen=True)
class SamplingPlan:
    """What a run varies: the scales, sample counts, sampling region and
    seed of the estimators, and the tolerances.  A method's fixed numerical
    parameters are module constants beside the one function that reads
    them."""

    radii: tuple = tuple(0.3 * 0.25**k for k in range(8))
    shell_samples: int = 48
    directions: int = 64
    seed: int = 0
    base_count: int = 20
    base_radius: float = 0.75
    segment_scales: tuple = (1.0, 0.4, 0.15, 0.05)
    lambda_grid: int = 9
    use_analytic_gradient: bool = True
    tol: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        for name, least in _PLAN_COUNTS.items():
            v = getattr(self, name)
            if not (isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= least):
                raise ValueError(f"{name} must be an integer >= {least}, got {v!r}")
        for name in _PLAN_REALS:
            if not _positive_finite(getattr(self, name)):
                raise ValueError(f"{name} must be a positive finite real, got {getattr(self, name)!r}")
        for name in ("radii", "segment_scales"):
            v = getattr(self, name)
            if not (isinstance(v, tuple) and v and all(_positive_finite(r) for r in v)):
                raise ValueError(f"{name} must be a non-empty tuple of positive finite reals, got {v!r}")
        if np.any(np.diff(self.radii) >= 0):
            raise ValueError("radii must be strictly decreasing")
        if not isinstance(self.use_analytic_gradient, bool):
            raise ValueError(f"use_analytic_gradient must be true or false, got {self.use_analytic_gradient!r}")

    def rng(self, tag):
        """Deterministic per-task generator derived from the plan seed."""
        return np.random.default_rng((self.seed, zlib.crc32(tag.encode())))
