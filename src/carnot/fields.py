"""Left-invariant vector fields in exponential coordinates, as matrices.

In graded coordinates the field that equals e_j at the origin reads

    X_j = d/dx_j + sum_{d_l > d_j} a^l_j(x) d/dx_l

with (d_l - d_j)-homogeneous polynomial coefficients a^l_j.  They are the
t-linear part of t -> x * (t e_j).  Through step 4 the BCH formula gives it
in closed form,

    a^l_j(x) = ([x, e_j] / 2 + [x, [x, e_j]] / 12)_l,

with no cubic term because the Bernoulli number B_3 vanishes: a^l_j has a
term c x_i / 2 for each bracket [e_i, e_j] = c e_l and a term t x_m x_i / 12
for each nested bracket [e_i, [e_m, e_j]] = t e_l.  Its linear part gives
the rotational constants a^{li}_j = c^l_ij / 2 (``field_coefficients``).

Fields and partials lower the homogeneous degree, so on the coefficient
vectors over ``monomials_up_to(desc, d)`` they are matrices
(``field_matrices``), built in closed form from the bracket entries:

    X_j x^a = a_j x^(a - e_j) + sum_l a_l a^l_j(x) x^(a - e_l).
"""

from __future__ import annotations

import numpy as np

from .errors import DescriptorError
from .polynomials import _per_descriptor, monomials_up_to

__all__ = ["field_coefficients", "field_matrices"]


def _require_grading(desc):
    """Raise ``DescriptorError`` when a bracket breaks the grading, since the
    a^l_j are then not homogeneous."""
    d = desc.dilation_exponents
    for i, j, k, _ in desc.bracket_entries:
        if d[k] != d[i] + d[j]:
            raise DescriptorError(f"bracket [e{i + 1}, e{j + 1}] -> e{k + 1} breaks the grading")


@_per_descriptor
def field_coefficients(desc):
    """The read-only constants a^{li}_j as ``alij[l - m1, i, j]``, from the
    structure tensor: the second-layer coefficients of the horizontal
    fields, antisymmetric in (i, j)."""
    _require_grading(desc)
    m1, m2 = desc.m1, desc.m2
    return 0.5 * np.moveaxis(desc.structure[:m1, :m1, m1:m2], 2, 0)


@_per_descriptor
def _field_matrices(desc, degree):
    """``field_matrices(desc, degree)``, built from the bracket entries."""
    _require_grading(desc)
    basis = monomials_up_to(desc, degree)
    index = {alpha: k for k, alpha in enumerate(basis)}
    eye = np.eye(desc.dim, dtype=np.int64)
    # a^l_j(x) d/dx_l as (l, exponent of its monomial, coefficient) per j
    terms = {}
    for i, j, l, c in desc.bracket_entries:
        terms.setdefault(j, []).append((l, eye[i], 0.5 * c))
    for (i, m, j, l), t in desc.nested_brackets().items():
        terms.setdefault(j, []).append((l, eye[m] + eye[i], t / 12.0))
    count = desc.layer_bounds[min(degree, desc.step)]
    X = np.zeros((count, len(basis), len(basis)))
    D = np.zeros_like(X)
    for k, alpha in enumerate(basis):
        a = np.array(alpha)
        for j in range(count):
            if a[j]:
                D[j, index[tuple(a - eye[j])], k] = a[j]
            for l, shift, coef in terms.get(j, ()):
                if a[l]:
                    X[j, index[tuple(a - eye[l] + shift)], k] += coef * a[l]
    X += D
    return X, D


def field_matrices(desc, degree=2):
    """``(X, D)``, the matrices of X_j and d/dx_j on the coefficient vectors
    over the n monomials of ``monomials_up_to(desc, degree)``.

    Each is ``(count, n, n)``: the fields of weight above ``degree`` vanish on
    that span, and only the ``count`` coordinates of weight <= ``degree`` are
    kept (``m2`` at degree 2).  Column k of ``X[j]`` is the coefficient vector
    of X_j applied to basis monomial k.  X comes from the bracket entries, not
    from ``field_coefficients``, and is built once per descriptor and degree.
    """
    return _field_matrices(desc, degree)
