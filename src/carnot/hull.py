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

__all__ = ["ConvexPolytope", "hausdorff_distance"]


@dataclass
class ConvexPolytope:
    """Convex hull of the rows of ``vertices``.

    The rows are generating points, not necessarily extreme points and not
    necessarily distinct; support values, the diameter and any maximum of a
    convex function over the hull are read off them exactly.  ``centroid``
    is the mean of the distinct generating points, a point of the hull.
    """

    vertices: np.ndarray
    dim: int

    @classmethod
    def from_points(cls, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return cls(pts, pts.shape[1])

    def __len__(self):
        return len(self.vertices)

    def support(self, h):
        """max over generating points of <v, h>; h may be a batch of directions.

        The contraction is an ``einsum``, whose values depend neither on the
        number of rows nor on the number of directions: numpy hands a
        one-row matmul to another BLAS kernel than a many-row one, which
        would move the last bits between a hull that keeps a repeated point
        once and one that keeps every copy.
        """
        return np.max(np.einsum("kd,...d->k...", self.vertices, np.asarray(h, dtype=float)), axis=0)

    def centroid(self):
        return np.unique(self.vertices, axis=0).mean(axis=0)

    def diameter(self):
        if len(self.vertices) <= 1:
            return 0.0
        diff = self.vertices[:, None, :] - self.vertices[None, :, :]
        return float(np.max(np.linalg.norm(diff, axis=-1)))


_HAUSDORFF_DIRECTIONS = 1024


def hausdorff_distance(A, B):
    """Support-gap Hausdorff distance between two convex vertex sets, over
    ``_HAUSDORFF_DIRECTIONS`` unit directions."""
    dirs = unit_directions(A.dim, _HAUSDORFF_DIRECTIONS)
    return float(np.max(np.abs(A.support(dirs) - B.support(dirs))))
