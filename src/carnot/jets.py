"""Degree-two jets of graded polynomials.

The space of polynomials of homogeneous degree <= 2 is spanned by constants,
horizontal coordinates, second-layer coordinates and horizontal quadratics;
it is parametrized by the jet (value, horizontal gradient, second-layer
gradient, symmetrized horizontal Hessian).  This module computes jet
coordinates via iterated left-invariant fields, rebuilds the polynomial from
a jet, and gives the exact peak of the 2-homogeneous part over the unit
quasi-sphere in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import apply_field, field_coefficients
from .polynomials import GradedPolynomial

__all__ = [
    "Jet2",
    "jet_words",
    "jet_coefficients",
    "poly_from_jet2",
    "sym_hessian",
    "check_alij",
    "lambda_max",
]


def _require_deg2(P):
    if P.coeffs and P.hdeg > 2:
        raise ValueError(f"polynomial has homogeneous degree {P.hdeg} > 2")


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

    def identity_residual(self):
        """Entrywise residual of H_ij = A^i_j - sum_l a^{li}_j (v2)_l."""
        fc = field_coefficients(self.desc)
        rhs = self.A.T.copy()
        for l in range(fc.alij.shape[0]):
            rhs -= fc.alij[l] * self.v2[l]
        return np.abs(self.hessian - rhs)


def jet_from_fit(desc, value, grad, v2, hessian):
    """Assemble a Jet2 from fitted parts; A is rebuilt from H and v2."""
    fc = field_coefficients(desc)
    hessian = np.asarray(hessian, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    A_t = hessian.copy()
    for l in range(fc.alij.shape[0]):
        A_t += fc.alij[l] * v2[l]
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


def jet_coefficients(P):
    """Map word I -> X^I P(0) over the degree <= 2 words."""
    _require_deg2(P)
    fc = field_coefficients(P.desc)
    origin = np.zeros(P.desc.dim)
    out = {}
    for word in jet_words(P.desc):
        Q = P
        for j in reversed(word):
            Q = apply_field(fc, j, Q)
        out[word] = float(Q.evaluate(origin))
    return out


def poly_from_jet2(jet):
    """The unique degree <= 2 polynomial with the given jet data.

    P(w) = value + <grad, pi_1 w> + <v2, pi_2 w> + (1/2) <H pi_1 w, pi_1 w>.
    """
    desc = jet.desc
    n = desc.dim
    terms = []
    if jet.value:
        terms.append(((0,) * n, jet.value))
    for i in range(desc.m1):
        if jet.grad[i]:
            alpha = [0] * n
            alpha[i] = 1
            terms.append((tuple(alpha), jet.grad[i]))
    for l in range(desc.m1, desc.m2):
        c = jet.v2[l - desc.m1]
        if c:
            alpha = [0] * n
            alpha[l] = 1
            terms.append((tuple(alpha), c))
    for i in range(desc.m1):
        for j in range(i, desc.m1):
            c = jet.hessian[i, j] if i == j else jet.hessian[i, j] + jet.hessian[j, i]
            if c:
                alpha = [0] * n
                alpha[i] += 1
                alpha[j] += 1
                terms.append((tuple(alpha), 0.5 * c))
    return GradedPolynomial.from_terms(desc, terms)


def sym_hessian(P):
    """Symmetrized horizontal Hessian and second-layer gradient of P.

    Both are constant (0-homogeneous) for degree <= 2 input, so they are
    returned as plain arrays.
    """
    _require_deg2(P)
    desc = P.desc
    fc = field_coefficients(desc)
    m1 = desc.m1
    origin = np.zeros(desc.dim)
    H = np.zeros((m1, m1))
    first = [apply_field(fc, j, P) for j in range(m1)]
    for i in range(m1):
        for j in range(i, m1):
            xij = apply_field(fc, i, first[j]).evaluate(origin)
            xji = apply_field(fc, j, first[i]).evaluate(origin)
            H[i, j] = H[j, i] = 0.5 * float(xij + xji)
    v2 = np.array([float(apply_field(fc, l, P).evaluate(origin)) for l in range(m1, desc.m2)])
    return H, v2


def check_alij(P):
    """Residual of X_i X_j P = (c_ij + c_ji)/2 + sum_l (X_l P) a^{li}_j.

    Both sides are formed with exact polynomial arithmetic; the entry (i, j)
    of the result is the largest coefficient of the residual polynomial.
    """
    _require_deg2(P)
    desc = P.desc
    fc = field_coefficients(desc)
    m1 = desc.m1
    res = np.zeros((m1, m1))
    first = [apply_field(fc, j, P) for j in range(m1)]
    second_layer = [apply_field(fc, l, P) for l in range(m1, desc.m2)]
    for i in range(m1):
        for j in range(m1):
            lhs = apply_field(fc, i, first[j])
            sym = P.partial(i).partial(j)  # equals (c_ij + c_ji)/2 for quadratics
            rhs = GradedPolynomial.constant(desc, 0.0) + sym
            for l in range(m1, desc.m2):
                rhs = rhs + second_layer[l - m1] * float(fc.alij[l - m1, i, j])
            res[i, j] = lhs.coeff_distance(rhs)
    return res


def lambda_max(P):
    """Maximum of |P^(2)| over the unit quasi-sphere, in closed form.

    Write the 2-homogeneous part as P^(2)(x) = x1^T S x1 / 2 + <v, x2>, with
    (S, v) = ``sym_hessian(P)``.  On the unit sphere of the homogeneous norm
    sum_s |pi_s x|^(1/s) (``GroupDescriptor.norm``) with r = |x1|, the layers
    above the second carry no weight at the peak, |x2| = (1 - r)^2, and the
    largest |P^(2)| is r^2 rho(S)/2 + (1 - r)^2 |v|.  That is convex in r, so
    the maximum is max(rho(S)/2, |v|_2), attained at r = 1 or r = 0.  The
    formula depends on that norm; another homogeneous norm gives another peak.
    """
    S, v = sym_hessian(P)
    return float(np.max([np.max(np.abs(np.linalg.eigvalsh(S))) / 2.0, np.linalg.norm(v)]))
