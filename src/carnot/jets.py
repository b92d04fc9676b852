"""Degree-two jets of polynomials on a stratified group.

A polynomial of homogeneous degree <= 2 is its coefficient vector over
``monomials_up_to(desc, 2)``; on that span the left-invariant fields X_j
and the partials d/dx_j are the matrices of ``fields.field_matrices``.
Every function here takes the descriptor and coefficient rows ``(..., n)``
over that basis (a longer row holds a monomial of degree > 2 and raises
``ValueError``) and reads its answer off those matrices: the horizontal
words X_i X_j P(0), the symmetrized horizontal Hessian and second-layer
gradient, the structure identity residual, and the exact peak of the
2-homogeneous part over the unit quasi-sphere.  ``identity_residual``
checks the same identity for a Hessian, second-layer gradient and extended
differential fitted separately.
"""

from __future__ import annotations

import numpy as np

from .fields import field_coefficients, field_matrices

__all__ = [
    "horizontal_words",
    "identity_residual",
    "sym_hessian",
    "check_alij",
    "lambda_max",
]


def _matrices(desc, C):
    """``field_matrices(desc)``, once the rows ``C`` are known to be over its basis."""
    X, D = field_matrices(desc)
    if np.shape(C)[-1] != X.shape[-1]:
        raise ValueError(
            f"expected the {X.shape[-1]} coefficients of a polynomial of homogeneous "
            f"degree <= 2 on {desc.name}, got {np.shape(C)[-1]}"
        )
    return X, D


def _apply(M, C):
    """``(..., J, n)``: the matrices ``M`` ``(J, n, n)`` applied to each row of ``C`` ``(..., n)``."""
    return np.einsum("jab,...b->...ja", M, C)


def _rotation(desc, v2):
    """sum_l a^{li}_j (v2)_l, as an (m1, m1) matrix indexed [i, j]."""
    return np.tensordot(v2, field_coefficients(desc), axes=1)


def horizontal_words(desc, C):
    """X_i X_j P(0) as an ``(..., m1, m1)`` matrix indexed [..., i, j], for the
    coefficient rows ``C``; the constant and linear horizontal monomials add
    nothing to it."""
    X, _ = _matrices(desc, C)
    m1 = desc.m1
    return np.swapaxes(_apply(X[:m1], _apply(X[:m1], C))[..., 0], -1, -2)


def identity_residual(desc, H, v2, A):
    """Entrywise residual of H_ij = A^i_j - sum_l a^{li}_j (v2)_l, for a
    symmetrized Hessian ``H`` and second-layer gradient ``v2`` against an
    extended differential ``A`` whose row j holds the coefficients of the
    j-th gradient component: (A w)_j = sum_i A[j, i] w_i."""
    return np.abs(H - (np.asarray(A).T - _rotation(desc, v2)))


def sym_hessian(desc, C):
    """Symmetrized horizontal Hessian ``(..., m1, m1)`` and second-layer
    gradient ``(..., m2 - m1)`` of the coefficient rows ``C``.

    Both are constant (0-homogeneous) for degree <= 2 input: H_ij is the
    value of (X_i X_j + X_j X_i) P / 2 and (v2)_l that of X_l P, at 0.
    """
    X, _ = _matrices(desc, C)
    xx = horizontal_words(desc, C)
    v2 = _apply(X[desc.m1 :], C)[..., 0]
    return 0.5 * (xx + np.swapaxes(xx, -1, -2)), v2


def check_alij(desc, C):
    """Residual of X_i X_j P = (c_ij + c_ji)/2 + sum_l (X_l P) a^{li}_j, per row.

    The left side of each of the K coefficient rows ``C`` comes from the field
    matrices X, the right from the partials D and the structure constants
    ``alij``.  Entry (k, i, j) of the ``(K, m1, m1)`` result is the largest
    coefficient of the residual polynomial of row k.
    """
    X, D = _matrices(desc, C)
    alij = field_coefficients(desc)
    m1 = desc.m1
    lhs = _apply(X[:m1], _apply(X[:m1], C))  # [k, j, i] = X_i X_j P
    sym = _apply(D[:m1], _apply(D[:m1], C))  # equals (c_ij + c_ji)/2 for quadratics
    rot = np.einsum("lij,kln->kjin", alij, _apply(X[m1:], C))
    return np.swapaxes(np.max(np.abs(lhs - (sym + rot)), axis=-1), -1, -2)


def lambda_max(desc, c):
    """Maximum of |P^(2)| over the unit quasi-sphere, in closed form.

    Write the 2-homogeneous part as P^(2)(x) = x1^T S x1 / 2 + <v, x2>, with
    (S, v) = ``sym_hessian(desc, c)``.  On the unit sphere of the norm
    sum_s |pi_s x|_2^(1/s), with pi_s x the layer-s block of x and r = |x1|,
    the layers above the second carry no weight at the peak, |x2| =
    (1 - r)^2, and the largest |P^(2)| is r^2 rho(S)/2 + (1 - r)^2 |v|.
    That is convex in r, so the maximum is max(rho(S)/2, |v|_2), attained at
    r = 1 or r = 0.  The formula depends on that norm; another homogeneous
    norm gives another peak.
    """
    S, v = sym_hessian(desc, c)
    return float(np.max([np.max(np.abs(np.linalg.eigvalsh(S))) / 2.0, np.linalg.norm(v)]))
