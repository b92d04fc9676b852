"""Convex sets in the horizontal layer, kept as their generating points.

Every query is a support value or the maximum of a convex function over the
set (diameter, subgradient violation, distance to a target), which a convex
hull attains at a generating point, so no extreme-point reduction is needed,
and a repeated generating point changes no answer: a hull keeps its points
as given, repeats and all.
Hausdorff distances use d_H(A, B) = max_u |h_A(u) - h_B(u)| over a dense set
of directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampling import unit_directions

__all__ = ["ConvexPolytope", "centroids", "diameters", "hausdorff_distance", "supports"]


@dataclass
class ConvexPolytope:
    """Convex hull of the rows of ``vertices``: generating points, not
    necessarily extreme points and not necessarily distinct.  The batched
    functions below answer its queries on ``vertices[None]``."""

    vertices: np.ndarray
    dim: int

    @classmethod
    def from_points(cls, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return cls(pts, pts.shape[1])


def supports(V, h):
    """The support values (K, ...) of the hulls of a (K, c, m) stack at the
    direction h (m,) or every direction of a batch (..., m).

    The contraction is an ``einsum``, whose values depend neither on the
    number of rows nor on the number of directions: numpy hands a one-row
    matmul to another BLAS kernel than a many-row one, which would move the
    last bits between a hull that keeps a repeated point once and one that
    keeps every copy.
    """
    return np.max(np.einsum("kcd,...d->kc...", np.asarray(V, dtype=float), np.asarray(h, dtype=float)), axis=1)


def centroids(V):
    """The means (K, m) of the distinct rows of every hull of a (K, c, m)
    stack, points of the hulls.  Each hull's rows are sorted
    lexicographically and summed in that order with repeats masked to zero,
    so this is ``np.unique(v, axis=0).mean(axis=0)`` bit for bit."""
    V = np.asarray(V, dtype=float)
    S = np.take_along_axis(V, np.lexsort(np.moveaxis(V, -1, 0)[::-1], axis=-1)[..., None], axis=1)
    first = np.ones(S.shape[:2], dtype=bool)
    first[:, 1:] = np.any(S[:, 1:] != S[:, :-1], axis=-1)
    return np.where(first[..., None], S, 0.0).sum(axis=1) / first.sum(axis=1)[:, None]


def diameters(V):
    """The diameters (K,) of the hulls of a (K, c, m) stack of generating
    points; NaN for a hull of no points, which certifies nothing.  Squared
    distances are summed one coordinate at a time, as ``np.linalg.norm`` sums
    them, with no (K, c, c, m) array, and rooted once: sqrt is monotone and
    correctly rounded, so this is the largest pairwise norm bit for bit."""
    V = np.asarray(V, dtype=float)
    K, c, m = V.shape
    if c == 0:
        return np.full(K, np.nan)
    sq, d = np.zeros((2, K, c, c))
    for j in range(m):
        np.subtract(V[:, :, None, j], V[:, None, :, j], out=d)
        sq += np.square(d, out=d)
    return np.sqrt(np.max(sq, axis=(1, 2)))


_HAUSDORFF_DIRECTIONS = 1024


def hausdorff_distance(A, B):
    """Support-gap Hausdorff distance between two convex vertex sets, over
    ``_HAUSDORFF_DIRECTIONS`` unit directions."""
    dirs = unit_directions(A.dim, _HAUSDORFF_DIRECTIONS)
    gap = supports(A.vertices[None], dirs)[0] - supports(B.vertices[None], dirs)[0]
    return float(np.max(np.abs(gap)))
