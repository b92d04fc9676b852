"""Sparse multi-index polynomials graded by the anisotropic degree.

A polynomial is a dict from exponent tuples to coefficients.  Variable i
carries the weight of its layer (the dilation exponent d_i), so the
homogeneous degree of a monomial x^alpha is sum_i d_i alpha_i.  The zero
polynomial gets the sentinel degree ``ZERO_DEGREE`` (= -inf).
"""

from __future__ import annotations

import numpy as np

from .errors import DescriptorError

ZERO_DEGREE = float("-inf")

_PRUNE = 0.0  # coefficients exactly equal to zero are dropped


def weighted_degree(alpha, desc):
    """Homogeneous degree sum_i d_i alpha_i of an exponent tuple."""
    return int(sum(int(a) * int(d) for a, d in zip(alpha, desc.dilation_exponents)))


class GradedPolynomial:
    """Sparse polynomial over the coordinates of a stratified group."""

    __slots__ = ("desc", "coeffs")

    def __init__(self, desc, coeffs=None):
        self.desc = desc
        clean = {}
        for alpha, c in (coeffs or {}).items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != desc.dim:
                raise DescriptorError(f"exponent tuple of length {len(alpha)}, expected {desc.dim}")
            c = float(c)
            if c != _PRUNE:
                clean[alpha] = clean.get(alpha, 0.0) + c
        self.coeffs = {a: c for a, c in clean.items() if c != 0.0}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, desc):
        return cls(desc, {})

    @classmethod
    def constant(cls, desc, c):
        return cls(desc, {(0,) * desc.dim: c})

    @classmethod
    def coordinate(cls, desc, i):
        alpha = [0] * desc.dim
        alpha[i] = 1
        return cls(desc, {tuple(alpha): 1.0})

    @classmethod
    def from_terms(cls, desc, terms):
        """Build from an iterable of (exponent tuple, coefficient)."""
        out = {}
        for alpha, c in terms:
            alpha = tuple(int(a) for a in alpha)
            out[alpha] = out.get(alpha, 0.0) + float(c)
        return cls(desc, out)

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, GradedPolynomial):
            if other.desc is not self.desc:
                raise DescriptorError("polynomials belong to different groups")
            return other
        return GradedPolynomial.constant(self.desc, other)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            out[a] = out.get(a, 0.0) + c
        return GradedPolynomial(self.desc, out)

    __radd__ = __add__

    def __neg__(self):
        return GradedPolynomial(self.desc, {a: -c for a, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, GradedPolynomial):
            c = float(other)
            return GradedPolynomial(self.desc, {a: v * c for a, v in self.coeffs.items()})
        other = self._coerce(other)
        out = {}
        for a1, c1 in self.coeffs.items():
            for a2, c2 in other.coeffs.items():
                key = tuple(x + y for x, y in zip(a1, a2))
                out[key] = out.get(key, 0.0) + c1 * c2
        return GradedPolynomial(self.desc, out)

    __rmul__ = __mul__

    def partial(self, i):
        """Ordinary partial derivative with respect to coordinate i."""
        out = {}
        for alpha, c in self.coeffs.items():
            if alpha[i] == 0:
                continue
            beta = list(alpha)
            beta[i] -= 1
            out[tuple(beta)] = out.get(tuple(beta), 0.0) + c * alpha[i]
        return GradedPolynomial(self.desc, out)

    # -- grading ------------------------------------------------------------

    @property
    def hdeg(self):
        """Homogeneous degree; ``ZERO_DEGREE`` for the zero polynomial."""
        if not self.coeffs:
            return ZERO_DEGREE
        return max(weighted_degree(a, self.desc) for a in self.coeffs)

    def homogeneous_part(self, j):
        """Restriction to monomials of homogeneous degree exactly j."""
        if j < 0:
            raise ValueError("homogeneous degree must be nonnegative")
        keep = {a: c for a, c in self.coeffs.items() if weighted_degree(a, self.desc) == j}
        return GradedPolynomial(self.desc, keep)

    def compose_dilation(self, r):
        """The polynomial x -> P(delta_r x)."""
        return GradedPolynomial(
            self.desc,
            {a: c * float(r) ** weighted_degree(a, self.desc) for a, c in self.coeffs.items()},
        )

    # -- evaluation and comparison -------------------------------------------

    def evaluate(self, pts):
        """Evaluate at points with trailing axis of length dim (batched)."""
        pts = np.asarray(pts, dtype=float)
        if pts.shape[-1] != self.desc.dim:
            raise DescriptorError(f"points have trailing length {pts.shape[-1]}, expected {self.desc.dim}")
        out = np.zeros(pts.shape[:-1])
        for alpha, c in self.coeffs.items():
            term = np.full(pts.shape[:-1], c)
            for i, a in enumerate(alpha):
                if a:
                    term = term * pts[..., i] ** a
            out = out + term
        return out

    __call__ = evaluate

    def coeff_distance(self, other):
        """Largest coefficient difference against another polynomial."""
        other = self._coerce(other)
        keys = set(self.coeffs) | set(other.coeffs)
        return max((abs(self.coeffs.get(a, 0.0) - other.coeffs.get(a, 0.0)) for a in keys), default=0.0)

    def __repr__(self):
        if not self.coeffs:
            return "GradedPolynomial(0)"
        bits = []
        for alpha, c in sorted(self.coeffs.items()):
            mono = "*".join(f"x{i + 1}^{a}" if a > 1 else f"x{i + 1}" for i, a in enumerate(alpha) if a)
            bits.append(f"{c:+g}" + (f"*{mono}" if mono else ""))
        return "GradedPolynomial(" + " ".join(bits) + ")"


def monomials_up_to(desc, bound):
    """All exponent tuples of homogeneous degree <= bound, sorted.

    Only variables whose weight does not exceed ``bound`` can appear.
    """
    out = []

    def rec(i, alpha, deg):
        if i == desc.dim:
            out.append(tuple(alpha))
            return
        w = int(desc.dilation_exponents[i])
        a = 0
        while deg + a * w <= bound:
            rec(i + 1, alpha + [a], deg + a * w)
            a += 1

    rec(0, [], 0)
    return sorted(out)
