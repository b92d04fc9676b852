"""Left-invariant vector fields in exponential coordinates.

In graded coordinates the field that equals e_j at the origin reads

    X_j = d/dx_j + sum_{d_l > d_j} a^l_j(x) d/dx_l

with (d_l - d_j)-homogeneous polynomial coefficients a^l_j.  They are the
t-linear part of t -> x * (t e_j).  Through step 4 the BCH formula gives it
in closed form,

    a^l_j(x) = ([x, e_j] / 2 + [x, [x, e_j]] / 12)_l,

with no cubic term because the Bernoulli number B_3 vanishes.  Its linear
part gives the rotational constants a^{li}_j = c^l_ij / 2.

A polynomial of homogeneous degree <= 2 is a coefficient vector over
``monomials_up_to(desc, 2)`` (``coefficient_vector``).  Fields and partials
lower the degree, so on that span they are matrices (``field_matrices``),
built once per descriptor from ``apply_field`` and ``partial``.
"""

from __future__ import annotations

from functools import wraps

import numpy as np

from .errors import DescriptorError
from .polynomials import GradedPolynomial, monomials_up_to

__all__ = ["FieldCoefficients", "field_coefficients", "apply_field", "coefficient_vector", "field_matrices"]


class FieldCoefficients:
    """Coordinate coefficients of the left-invariant basis fields.

    ``poly(j, l)`` returns a^l_j as a graded polynomial (zero when absent);
    ``alij[l - m1, i, j]`` holds the constants a^{li}_j of the second-layer
    coefficients of horizontal fields, antisymmetric in (i, j).
    """

    def __init__(self, desc, table, alij):
        self.desc = desc
        self._table = table  # {(j, l): GradedPolynomial}
        self.alij = alij
        self.alij.setflags(write=False)

    def poly(self, j, l):
        p = self._table.get((j, l))
        if p is None:
            return GradedPolynomial.zero(self.desc)
        return p

    def raised_indices(self, j):
        """Indices l with d_l > d_j and a nonzero coefficient polynomial."""
        return [l for (jj, l) in self._table if jj == j]

    def antisymmetry_residual(self):
        return float(np.max(np.abs(self.alij + np.swapaxes(self.alij, 1, 2)))) if self.alij.size else 0.0


def _per_descriptor(fn):
    """Cache ``fn(desc)`` on the descriptor itself, so that the result lives
    as long as the descriptor does.  (A global cache keyed on descriptors,
    which hash by identity, would keep every descriptor ever built.)"""
    attr = f"_cached_{fn.__name__}"

    @wraps(fn)
    def cached(desc):
        if attr not in desc.__dict__:
            desc.__dict__[attr] = fn(desc)
        return desc.__dict__[attr]

    return cached


@_per_descriptor
def field_coefficients(desc):
    """Compute all a^l_j (and the a^{li}_j constants) for a descriptor.

    Raises ``DescriptorError`` when a bracket breaks the grading, since the
    a^l_j are then not homogeneous.
    """
    d = desc.dilation_exponents
    for i, j, k, _ in desc.bracket_entries:
        if d[k] != d[i] + d[j]:
            raise DescriptorError(f"bracket [e{i + 1}, e{j + 1}] -> e{k + 1} breaks the grading")
    eye = np.eye(desc.dim, dtype=np.int64)

    # a^l_j gets c x_i from [e_i, e_j] = c e_l, and t x_m x_i from
    # [e_i, [e_m, e_j]] = t e_l; terms in (i) and then (m, i) order
    lin, quad = {}, {}
    for i, j, l, c in desc.bracket_entries:
        lin.setdefault((j, l), []).append((eye[i], 0.5 * c))
    for (i, m, j, l), t in desc.nested_brackets().items():
        quad.setdefault((j, l), []).append(((m, i), t / 12.0))
    table = {}
    for key in sorted(lin.keys() | quad.keys()):
        terms = lin.get(key, []) + [(eye[m] + eye[i], t) for (m, i), t in sorted(quad.get(key, []))]
        a = GradedPolynomial.from_terms(desc, terms)
        if a.coeffs:
            table[key] = a

    m1, m2 = desc.m1, desc.m2
    alij = 0.5 * np.moveaxis(desc.structure[:m1, :m1, m1:m2], 2, 0)
    return FieldCoefficients(desc, table, alij)


def apply_field(fc, j, P):
    """Apply the left-invariant field X_j to a polynomial, exactly."""
    if P.desc is not fc.desc:
        raise DescriptorError("polynomial and field coefficients belong to different groups")
    out = P.partial(j)
    for l in fc.raised_indices(j):
        out = out + fc.poly(j, l) * P.partial(l)
    return out


@_per_descriptor
def _degree2_index(desc):
    return {alpha: k for k, alpha in enumerate(monomials_up_to(desc, 2))}


def coefficient_vector(P):
    """Coefficients of P over ``monomials_up_to(P.desc, 2)``, in that order.

    Raises ``ValueError`` when P has a monomial of homogeneous degree > 2.
    """
    index = _degree2_index(P.desc)
    c = np.zeros(len(index))
    for alpha, v in P.coeffs.items():
        if alpha not in index:
            raise ValueError(f"polynomial has homogeneous degree {P.hdeg} > 2")
        c[index[alpha]] = v
    return c


@_per_descriptor
def field_matrices(desc):
    """``(X, D)``, each ``(m2, n, n)`` over the n monomials of degree <= 2.

    Column k of ``X[j]`` is ``coefficient_vector(apply_field(fc, j, m_k))``
    for basis monomial m_k, and of ``D[j]`` that of ``m_k.partial(j)``, so X
    comes from the field table, not from ``alij``.  The fields of layers
    above the second vanish on this span; only j < m2 are kept.
    """
    fc = field_coefficients(desc)
    monomials = [GradedPolynomial(desc, {alpha: 1.0}) for alpha in _degree2_index(desc)]
    X = np.array([[coefficient_vector(apply_field(fc, j, m)) for m in monomials] for j in range(desc.m2)])
    D = np.array([[coefficient_vector(m.partial(j)) for m in monomials] for j in range(desc.m2)])
    X, D = np.swapaxes(X, 1, 2), np.swapaxes(D, 1, 2)
    X.setflags(write=False)
    D.setflags(write=False)
    return X, D
