"""Polynomials on a stratified group as coefficient vectors.

Variable i carries the weight of its layer (the dilation exponent d_i), so
the homogeneous degree of a monomial x^alpha is sum_i d_i alpha_i.  A
polynomial of homogeneous degree <= d is its vector of coefficients over
``monomials_up_to(desc, d)``, in that order; the length of the vector fixes
d.  ``evaluate`` reads the values off the nonzero coefficients.
"""

from __future__ import annotations

from functools import wraps

import numpy as np

from .errors import DescriptorError

__all__ = ["weighted_degree", "monomials_up_to", "evaluate"]


def _per_descriptor(fn):
    """Cache ``fn(desc, *args)`` on the descriptor itself, so that the result
    lives as long as the descriptor does.  (A global cache keyed on
    descriptors, which hash by identity, would keep every descriptor ever
    built.)  A result that is an array, or a tuple holding arrays, is
    shared by every later call, so those arrays are made read-only; an
    exception is not cached, and every call raises it again."""

    @wraps(fn)
    def cached(desc, *args):
        cache = desc.__dict__.setdefault("_per_descriptor", {})
        key = (fn.__name__, *args)
        if key not in cache:
            out = fn(desc, *args)
            for a in out if isinstance(out, tuple) else (out,):
                if isinstance(a, np.ndarray):
                    a.setflags(write=False)
            cache[key] = out
        return cache[key]

    return cached


def weighted_degree(alpha, desc):
    """Homogeneous degree sum_i d_i alpha_i of an exponent tuple."""
    return int(sum(int(a) * int(d) for a, d in zip(alpha, desc.dilation_exponents)))


@_per_descriptor
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
    return tuple(sorted(out))


@_per_descriptor
def _powers(desc, n):
    """Per monomial of the basis with n monomials, its nonzero powers as
    (coordinate, exponent) pairs."""
    basis = ()
    for bound in range(n):  # the basis of degree d holds 1, x1, ..., x1^d
        basis = monomials_up_to(desc, bound)
        if len(basis) >= n:
            break
    if len(basis) != n:
        raise ValueError(f"{n} coefficients match no monomial basis of {desc.name}")
    return tuple(tuple((i, a) for i, a in enumerate(alpha) if a) for alpha in basis)


def evaluate(desc, c, pts):
    """Value at points with trailing axis of length dim (batched) of the
    polynomial with coefficient vector ``c``, as a new array.  Only the
    monomials with a nonzero coefficient are evaluated, with integer powers
    but no ``** 1`` or unit coefficient, and summed from the last basis
    monomial to the first (report metrics depend on that order at round-off)."""
    pts = np.asarray(pts, dtype=float)
    if pts.shape[-1] != desc.dim:
        raise DescriptorError(f"points have trailing length {pts.shape[-1]}, expected {desc.dim}")
    coeffs = np.asarray(c, dtype=float).tolist()
    powers = _powers(desc, len(coeffs))
    out, count = None, 0
    for k in range(len(coeffs) - 1, -1, -1):
        if coeffs[k]:
            term = None if coeffs[k] == 1.0 and powers[k] else coeffs[k]
            for i, a in powers[k]:
                x = pts[..., i] if a == 1 else pts[..., i] ** a
                term = x if term is None else term * x
            out, count = (term if out is None else out + term), count + 1
    if count < 2:  # a lone term is added to zeros, so no view of pts is returned
        out = np.zeros(pts.shape[:-1]) + (out if count else 0.0)
    return out
