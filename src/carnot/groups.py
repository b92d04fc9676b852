"""Stratified (Carnot) group arithmetic from structure constants.

A group is described by its graded Lie algebra: the layer dimensions and a
sparse bracket table [e_i, e_j] = sum_k c^k_ij e_k.  Exponential coordinates
of the first kind identify the group with R^n; the product is the BCH
formula written out in closed form through four letters, which is exact for
every step up to ``MAX_STEP`` = 4, and dilations scale layer-s coordinates
by r^s.

All point operations accept numpy arrays with an arbitrary batch shape and a
trailing axis of length ``dim``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DescriptorError

__all__ = [
    "GroupDescriptor",
    "ValidationReport",
    "Violation",
    "validate_descriptor",
]

# The closed-form BCH product below is exact through step 4.
MAX_STEP = 4


@dataclass(frozen=True)
class Violation:
    kind: str  # antisymmetry | grading | jacobi | stratification
    indices: tuple
    magnitude: float


@dataclass(frozen=True)
class ValidationReport:
    name: str
    ok: bool
    violations: tuple

    def __str__(self):
        if self.ok:
            return f"{self.name}: pass"
        lines = [f"{self.name}: {len(self.violations)} violation(s)"]
        lines += [f"  {v.kind} at {v.indices} (magnitude {v.magnitude:.3g})" for v in self.violations]
        return "\n".join(lines)


class GroupDescriptor:
    """A stratified Lie algebra presented by layer dimensions and brackets.

    Parameters
    ----------
    name : str
        Display label.
    layer_dims : sequence of int
        Dimensions (dim V_1, ..., dim V_step) of the layers.
    brackets : mapping
        Sparse table {(i, j, k): c} with 0-based indices meaning
        [e_i, e_j] = sum_k c e_k.  The table must already be antisymmetric
        in (i, j); ``validate_descriptor`` reports violations rather than
        raising.

    Instances are immutable after construction and hash by identity, so
    derived tables may be cached on them safely.
    """

    def __init__(self, name, layer_dims, brackets):
        layer_dims = tuple(int(m) for m in layer_dims)
        if not layer_dims or any(m <= 0 for m in layer_dims):
            raise DescriptorError("layer dimensions must be positive integers")
        if len(layer_dims) > MAX_STEP:
            raise DescriptorError(f"step {len(layer_dims)} exceeds supported maximum {MAX_STEP}")
        self.name = str(name)
        self.layer_dims = layer_dims
        self.step = len(layer_dims)
        self.dim = int(sum(layer_dims))
        bounds = [0]
        for m in layer_dims:
            bounds.append(bounds[-1] + m)
        self.layer_bounds = tuple(bounds)  # (m_0, m_1, ..., m_step)
        self.m1 = bounds[1]
        self.m2 = bounds[2] if self.step >= 2 else bounds[1]
        exps = np.concatenate([np.full(m, s + 1, dtype=np.int64) for s, m in enumerate(layer_dims)])
        exps.setflags(write=False)
        self.dilation_exponents = exps
        # homogeneous dimension, used for measure-compatible radial sampling
        self.homogeneous_dim = int(exps.sum())

        C = np.zeros((self.dim, self.dim, self.dim))
        entries = []
        for (i, j, k), c in dict(brackets).items():
            for idx in (i, j, k):
                if not 0 <= idx < self.dim:
                    raise DescriptorError(f"bracket index {idx} out of range for dim {self.dim}")
            c = float(c)
            if c != 0.0:
                C[i, j, k] = c
                entries.append((int(i), int(j), int(k), c))
        C.setflags(write=False)
        self.structure = C
        self.bracket_entries = tuple(sorted(entries))

    # -- basic structure ---------------------------------------------------

    def __repr__(self):
        return f"GroupDescriptor({self.name!r}, layers={self.layer_dims})"

    def layer_slice(self, s):
        """Coordinate slice of layer ``s`` (1-based)."""
        if not 1 <= s <= self.step:
            raise DescriptorError(f"layer index {s} out of range 1..{self.step}")
        return slice(self.layer_bounds[s - 1], self.layer_bounds[s])

    def identity(self):
        return np.zeros(self.dim)

    def basis_vector(self, i):
        e = np.zeros(self.dim)
        e[i] = 1.0
        return e

    def embed_horizontal(self, h):
        """Pad a horizontal vector (length m1) with zeros to a full point."""
        h = np.asarray(h, dtype=float)
        if h.shape[-1] != self.m1:
            raise DescriptorError(f"horizontal vector has length {h.shape[-1]}, expected {self.m1}")
        out = np.zeros(h.shape[:-1] + (self.dim,))
        out[..., : self.m1] = h
        return out

    def _check_point(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise DescriptorError(
                f"point has trailing length {x.shape[-1]}, expected {self.dim} for group {self.name!r}"
            )
        return x

    # -- algebra and group operations --------------------------------------

    def bracket(self, u, v):
        """Lie bracket of algebra elements, batched over leading axes."""
        u = self._check_point(u)
        v = self._check_point(v)
        return np.einsum("...i,...j,ijk->...k", u, v, self.structure)

    def product(self, x, y):
        """Group product in exponential coordinates (closed-form BCH).

        x + y + [x,y]/2 + ([x,[x,y]] - [y,[x,y]])/12 - [y,[x,[x,y]]]/24,
        truncated at the step, since brackets of more than ``step`` letters
        vanish.
        """
        x = self._check_point(x)
        y = self._check_point(y)
        out = x + y
        if self.step < 2:
            return out
        xy = self.bracket(x, y)
        out = out + 0.5 * xy
        if self.step < 3:
            return out
        xxy = self.bracket(x, xy)
        out = out + (xxy - self.bracket(y, xy)) / 12.0
        if self.step < 4:
            return out
        return out - self.bracket(y, xxy) / 24.0

    def inverse(self, x):
        """Group inverse; in exponential coordinates this is negation."""
        return -self._check_point(x)

    def dilate(self, r, x):
        """Anisotropic dilation: layer-s coordinates scale by r**s."""
        if np.any(np.asarray(r) <= 0):
            raise DescriptorError("dilation factor must be positive")
        x = self._check_point(x)
        return x * np.asarray(r)[..., None] ** self.dilation_exponents

    def norm(self, x):
        """Homogeneous norm sum_s |pi_s x|_2 ** (1/s); exactly 1-homogeneous."""
        x = self._check_point(x)
        total = 0.0
        for s in range(1, self.step + 1):
            block = x[..., self.layer_slice(s)]
            r = np.sqrt(np.sum(block * block, axis=-1))
            total = total + (r if s == 1 else r ** (1.0 / s))
        return total

    def translate_points(self, x, ws):
        """Batch of x * w for w rows of ``ws``."""
        return self.product(np.broadcast_to(x, np.shape(ws)), ws)


# -- descriptor validation ---------------------------------------------------


def validate_descriptor(desc, tol=1e-10):
    """Check antisymmetry, grading, the Jacobi identity and the
    layer-generation (stratification) condition.

    Violations are collected and reported, never raised.
    """
    C = desc.structure
    n = desc.dim
    d = desc.dilation_exponents
    violations = []

    skew = C + np.swapaxes(C, 0, 1)
    for i, j, k in zip(*np.nonzero(np.abs(skew) > tol)):
        if i <= j:
            violations.append(Violation("antisymmetry", (int(i), int(j), int(k)), float(abs(skew[i, j, k]))))

    for i, j, k, c in desc.bracket_entries:
        if d[k] != d[i] + d[j]:
            violations.append(Violation("grading", (i, j, k), abs(c)))

    # Jacobi: [e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] + [e_k,[e_i,e_j]] = 0
    T = np.einsum("jkm,iml->ijkl", C, C)
    J = T + T.transpose(1, 2, 0, 3) + T.transpose(2, 0, 1, 3)
    for i, j, k, l in zip(*np.nonzero(np.abs(J) > tol)):
        if i < j < k:
            violations.append(Violation("jacobi", (int(i), int(j), int(k), int(l)), float(abs(J[i, j, k, l]))))

    # stratification: brackets of V_1 with V_{s-1} must span V_s
    for s in range(2, desc.step + 1):
        prev = desc.layer_slice(s - 1)
        cur = desc.layer_slice(s)
        rows = []
        for i in range(desc.m1):
            for b in range(prev.start, prev.stop):
                rows.append(C[i, b, cur])
        rank = np.linalg.matrix_rank(np.asarray(rows), tol=1e-10) if rows else 0
        want = desc.layer_dims[s - 1]
        if rank < want:
            violations.append(Violation("stratification", (s,), float(want - rank)))

    return ValidationReport(desc.name, not violations, tuple(violations))
