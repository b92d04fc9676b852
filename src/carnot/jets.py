"""Degree-two jets of polynomials on a stratified group.

A polynomial of homogeneous degree <= 2 is its coefficient vector over
``monomials_up_to(desc, 2)``; on that span the left-invariant fields X_j
and the partials d/dx_j are the matrices of ``fields.field_matrices``.
Every function here takes the descriptor and coefficient rows ``(..., n)``
over that basis (a longer row holds a monomial of degree > 2 and raises
``ValueError``) and reads its answer off those matrices: the jet values
X^I P(0) over field words I, the symmetrized horizontal Hessian and
second-layer gradient, the structure identity residual, and the exact peak
of the 2-homogeneous part over the unit quasi-sphere.  A jet (value,
horizontal gradient, second-layer gradient, symmetrized horizontal Hessian)
determines the coefficient vector, which ``poly_from_jet2`` rebuilds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import field_coefficients, field_matrices
from .polynomials import monomials_up_to

__all__ = [
    "Jet2",
    "jet_words",
    "jet_coefficients",
    "poly_from_jet2",
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


@dataclass(frozen=True)
class Jet2:
    """Second-order package of a function at a point.

    ``grad`` is the horizontal gradient, ``v2`` the gradient along the second
    layer, ``hessian`` the symmetrized horizontal Hessian and ``A`` the
    extended differential stored so that row j holds the coefficients of the
    j-th gradient component: (A w)_j = sum_i A[j, i] w_i.
    """

    desc: object
    value: float
    grad: np.ndarray
    v2: np.ndarray
    hessian: np.ndarray
    A: np.ndarray

    def identity_residual(self, A=None):
        """Entrywise residual of H_ij = A^i_j - sum_l a^{li}_j (v2)_l, for an
        extended differential ``A`` fitted elsewhere (default: the jet's own)."""
        A = self.A if A is None else A
        return np.abs(self.hessian - (A.T - _rotation(self.desc, self.v2)))


def jet_from_fit(desc, value, grad, v2, hessian):
    """Assemble a Jet2 from fitted parts; A is rebuilt from H and v2."""
    hessian = np.asarray(hessian, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    A_t = hessian + _rotation(desc, v2)
    return Jet2(desc, float(value), np.asarray(grad, dtype=float), v2, hessian, A_t.T)


def jet_words(desc):
    """Ordered field words of homogeneous degree <= 2.

    The empty word, single horizontal and second-layer fields, and ordered
    horizontal pairs; together they determine a degree <= 2 polynomial.
    """
    words = [()]
    words += [(i,) for i in range(desc.m1)]
    words += [(l,) for l in range(desc.m1, desc.m2)]
    words += [(i, j) for i in range(desc.m1) for j in range(desc.m1)]
    return words


def jet_coefficients(desc, c):
    """Map word I -> X^I P(0) over the degree <= 2 words, for the
    coefficient vector ``c`` of P.  The constant monomial is basis entry 0."""
    X, _ = _matrices(desc, c)
    out = {}
    for word in jet_words(desc):
        v = c
        for j in reversed(word):
            v = X[j] @ v
        out[word] = float(v[0])
    return out


def poly_from_jet2(jet):
    """Coefficient vector of the unique degree <= 2 polynomial with the given jet.

    P(w) = value + <grad, pi_1 w> + <v2, pi_2 w> + (1/2) <H pi_1 w, pi_1 w>.
    """
    desc = jet.desc
    basis = monomials_up_to(desc, 2)
    eye = np.eye(desc.dim, dtype=np.int64)
    c = np.zeros(len(basis))
    c[0] = jet.value
    for i in range(desc.m1):
        c[basis.index(tuple(eye[i]))] = jet.grad[i]
        for j in range(i, desc.m1):
            h = jet.hessian[i, j] if i == j else jet.hessian[i, j] + jet.hessian[j, i]
            c[basis.index(tuple(eye[i] + eye[j]))] = 0.5 * h
    for l in range(desc.m1, desc.m2):
        c[basis.index(tuple(eye[l]))] = jet.v2[l - desc.m1]
    return c


def sym_hessian(desc, C):
    """Symmetrized horizontal Hessian ``(..., m1, m1)`` and second-layer
    gradient ``(..., m2 - m1)`` of the coefficient rows ``C``.

    Both are constant (0-homogeneous) for degree <= 2 input: H_ij is the
    value of (X_i X_j + X_j X_i) P / 2 and (v2)_l that of X_l P, at 0.
    """
    X, _ = _matrices(desc, C)
    m1 = desc.m1
    xx = _apply(X[:m1], _apply(X[:m1], C))[..., 0]  # [..., j, i] = X_i X_j P(0)
    v2 = _apply(X[m1:], C)[..., 0]
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
    sum_s |pi_s x|^(1/s) (``GroupDescriptor.norm``) with r = |x1|, the layers
    above the second carry no weight at the peak, |x2| = (1 - r)^2, and the
    largest |P^(2)| is r^2 rho(S)/2 + (1 - r)^2 |v|.  That is convex in r, so
    the maximum is max(rho(S)/2, |v|_2), attained at r = 1 or r = 0.  The
    formula depends on that norm; another homogeneous norm gives another peak.
    """
    S, v = sym_hessian(desc, c)
    return float(np.max([np.max(np.abs(np.linalg.eigvalsh(S))) / 2.0, np.linalg.norm(v)]))
