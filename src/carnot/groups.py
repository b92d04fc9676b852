"""Stratified (Carnot) group arithmetic from structure constants.

A group is described by its graded Lie algebra: the layer dimensions and a
sparse bracket table [e_i, e_j] = sum_k c^k_ij e_k.  Exponential coordinates
of the first kind identify the group with R^n; the product is the BCH
formula written out in closed form through four letters, which is exact for
every step up to ``MAX_STEP`` = 4, and dilations scale layer-s coordinates
by r^s.

The product works on coordinate columns and sums only the bracket terms
that grading leaves nonzero: [x, y] has no layer-1 part, [x, [x, y]]
starts at layer 3, and [y, [x, [x, y]]] lives in layer 4 only.  Output
column k adds c u_i v_j over its terms in entry order, with no multiply for
a unit constant and no BLAS call, so a row's product has the same bits
alone, in any batch and under any BLAS kernel.  One point runs on Python
floats; a batch runs ``_ROW_BLOCK`` rows at a time on views of the operands
(broadcast ones are not copied), into one preallocated output.  A column
temporary of 8,192 rows is 64 KB; on a 2-CPU Xeon host, 10^5-row products
took as long in 4,096-row blocks and longer in 16,384-row ones.

All point operations accept numpy arrays with an arbitrary batch shape and a
trailing axis of length ``dim``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import DescriptorError

__all__ = [
    "GroupDescriptor",
    "ValidationReport",
    "Violation",
    "validate_descriptor",
]

# The closed-form BCH product below is exact through step 4.  No term holds y more
# than twice, so x (t y) is quadratic in t (convexity._horizontal_lines and its users rely on it).
MAX_STEP = 4

# Rows of a batch that go through the BCH chain (and its column temporaries) at once.
_ROW_BLOCK = 8192


def _is_int(v):
    """Whether ``v`` is an integer and not a bool (JSON ``true`` is no index)."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


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

    Layer dimensions and indices that are not integers, and constants that
    are not finite reals, raise ``DescriptorError`` (bools are neither).

    Instances are immutable (every array read-only) and hash by identity, so
    derived tables may be cached on them safely and one instance shared.
    """

    def __init__(self, name, layer_dims, brackets):
        layer_dims = tuple(layer_dims)
        if not layer_dims or not all(_is_int(m) and m > 0 for m in layer_dims):
            raise DescriptorError(f"layer dimensions must be positive integers, got {list(layer_dims)}")
        layer_dims = tuple(int(m) for m in layer_dims)
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
        for n, ((i, j, k), c) in enumerate(dict(brackets).items(), 1):
            for idx in (i, j, k):
                if not _is_int(idx):
                    raise DescriptorError(f"bracket record {n}: index {idx!r} is not an integer")
                if not 0 <= idx < self.dim:
                    raise DescriptorError(f"bracket record {n}: 0-based index {idx} out of range for dim {self.dim}")
            real = isinstance(c, (int, float, np.integer, np.floating)) and not isinstance(c, bool)
            if not (real and abs(c) <= sys.float_info.max):  # false for NaN, and for ints float() cannot hold
                raise DescriptorError(f"bracket record {n}: constant {c!r} is not a finite real")
            c = float(c)
            if c != 0.0:
                C[i, j, k] = c
                entries.append((int(i), int(j), int(k), c))
        C.setflags(write=False)
        self.structure = C
        self.bracket_entries = tuple(sorted(entries))
        # Term tables of the nesting levels [x, y], [x or y, xy] and [y, xxy] up to
        # the step: per output column k, (k, first (i, j, c), the others) of the
        # entries whose right operand column j the level before can reach.
        reach, terms = range(self.dim), []
        for _ in range(self.step - 1):
            cols = {}
            for i, j, k, c in self.bracket_entries:
                if j in reach:
                    cols.setdefault(k, []).append((i, j, c))
            terms.append(tuple((k, t[0], tuple(t[1:])) for k, t in sorted(cols.items())))
            reach = cols
        self._terms = tuple(terms)

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

    def embed_horizontal(self, h):
        """Pad a horizontal vector (length m1) with zeros to a full point."""
        h = np.asarray(h, dtype=float)
        if h.shape[-1] != self.m1:
            raise DescriptorError(f"horizontal vector has length {h.shape[-1]}, expected {self.m1}")
        out = np.zeros(h.shape[:-1] + (self.dim,))
        out[..., : self.m1] = h
        return out

    def nested_brackets(self):
        """The nonzero [e_a, [e_b, e_c]] = sum_l t e_l as {(a, b, c, l): t},
        in sorted key order, from the bracket entries alone."""
        by_right = {}
        for a, m, l, coef in self.bracket_entries:
            by_right.setdefault(m, []).append((a, l, coef))
        out = {}
        for b, c, m, inner in self.bracket_entries:
            for a, l, outer in by_right.get(m, ()):
                out[a, b, c, l] = out.get((a, b, c, l), 0.0) + inner * outer
        return {key: out[key] for key in sorted(out) if out[key] != 0.0}

    def _check_point(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise DescriptorError(
                f"point has trailing length {x.shape[-1]}, expected {self.dim} for group {self.name!r}"
            )
        return x

    # -- algebra and group operations --------------------------------------

    def product(self, x, y):
        """Group product in exponential coordinates (closed-form BCH).

        x + y + [x,y]/2 + ([x,[x,y]] - [y,[x,y]])/12 - [y,[x,[x,y]]]/24,
        truncated at the step, since brackets of more than ``step`` letters
        vanish.
        """
        x, y = self._check_point(x), self._check_point(y)
        if x.shape == y.shape and x.ndim == 1:
            x, y = x.tolist(), y.tolist()
            z = [a + b + 0.0 for a, b in zip(x, y)] if self.step > 1 else [a + b for a, b in zip(x, y)]
            self._bch(x, y, z)
            return np.array(z)
        out = np.empty(x.shape if x.shape == y.shape else np.broadcast(x, y).shape)
        self._blocked(x, y, out)
        return out

    def _blocked(self, x, y, out):
        """``out = x y`` over a batch that ``x`` and ``y`` broadcast to, at
        most ``_ROW_BLOCK`` rows per ``_bch`` call: whole leading-axis slices
        per block, or one slice at a time when a slice alone holds more rows.
        Operands pass as views; only ``out`` is written."""
        if out.size // self.dim <= _ROW_BLOCK:
            np.add(x, y, out=out)
            if self.step > 1:
                out += 0.0
            cols = lambda a: a.T if a.ndim == 2 else a.transpose(-1, *range(a.ndim - 1))
            self._bch(cols(x), cols(y), list(cols(out)))
            return
        if x.shape != y.shape:
            x, y = np.broadcast_arrays(x, y)
        per_slice = out.size // self.dim // len(out)
        if per_slice > _ROW_BLOCK:
            for a in range(len(out)):
                self._blocked(x[a], y[a], out[a])
        else:
            step = _ROW_BLOCK // per_slice
            for a in range(0, len(out), step):
                self._blocked(x[a : a + step], y[a : a + step], out[a : a + step])

    @staticmethod
    def _bracket(terms, u, v):
        """{k: [u, v]_k} over one level's term table, each column summed in
        entry order from its first term."""
        out = {}
        for k, (i, j, c), rest in terms:
            s = u[i] * v[j] if c == 1.0 else u[i] * v[j] * c
            for i, j, c in rest:
                if c == 1.0:
                    s += u[i] * v[j]
                elif c == -1.0:
                    s -= u[i] * v[j]
                else:
                    s += u[i] * v[j] * c
            out[k] = s
        return out

    def _bch(self, x, y, z):
        """Add the bracket terms of the product to ``z`` in place.

        ``x[k]``, ``y[k]`` and ``z[k]`` are coordinate k: floats of one
        point, or arrays of one block that broadcast to ``z[k]``, a view of
        the output.  ``z`` enters as x + y + 0.0 when brackets follow.  With
        no -0 in ``z``, a bracket summed from its first term adds the same
        bits as a dense contraction's sum from +0 over every entry: the two
        differ only in the sign of a zero."""
        if self.step < 2:
            return
        xy = self._bracket(self._terms[0], x, y)
        for k, s in xy.items():
            z[k] += 0.5 * s
        if self.step < 3:
            return
        xxy = self._bracket(self._terms[1], x, xy)
        yxy = self._bracket(self._terms[1], y, xy)
        for k in xxy:
            z[k] += (xxy[k] - yxy[k]) / 12.0
        if self.step < 4:
            return
        yxxy = self._bracket(self._terms[2], y, xxy)
        for k in yxxy:
            z[k] -= yxxy[k] / 24.0

    def inverse(self, x):
        """Group inverse; in exponential coordinates this is negation."""
        return -self._check_point(x)

    def dilate(self, r, x):
        """Anisotropic dilation: layer-s coordinates scale by r**s."""
        if np.any(np.asarray(r) <= 0):
            raise DescriptorError("dilation factor must be positive")
        x = self._check_point(x)
        return x * np.asarray(r)[..., None] ** self.dilation_exponents


# -- descriptor validation ---------------------------------------------------


def validate_descriptor(desc):
    """Check antisymmetry, grading, the Jacobi identity and the
    layer-generation (stratification) condition.

    Violations are collected and reported, never raised.
    """
    tol = 1e-10  # antisymmetry and Jacobi defects, and singular values, up to this read as zero
    C = desc.structure
    d = desc.dilation_exponents
    violations = []

    skew = C + np.swapaxes(C, 0, 1)
    for i, j, k in zip(*np.nonzero(np.abs(skew) > tol)):
        if i <= j:
            violations.append(Violation("antisymmetry", (int(i), int(j), int(k)), float(abs(skew[i, j, k]))))

    for i, j, k, c in desc.bracket_entries:
        if d[k] != d[i] + d[j]:
            violations.append(Violation("grading", (i, j, k), abs(c)))

    # Jacobi: [e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] + [e_k,[e_i,e_j]] = 0, at each
    # i < j < k that is a rotation of a nonzero nested bracket
    T = desc.nested_brackets()
    rotations = lambda i, j, k: ((i, j, k), (j, k, i), (k, i, j))
    for i, j, k, l in sorted({(*r, l) for i, j, k, l in T for r in rotations(i, j, k) if r[0] < r[1] < r[2]}):
        J = T.get((i, j, k, l), 0.0) + T.get((k, i, j, l), 0.0) + T.get((j, k, i, l), 0.0)
        if abs(J) > tol:
            violations.append(Violation("jacobi", (i, j, k, l), abs(J)))

    # stratification: brackets of V_1 with V_{s-1} must span V_s
    for s in range(2, desc.step + 1):
        prev = desc.layer_slice(s - 1)
        cur = desc.layer_slice(s)
        rows = []
        for i in range(desc.m1):
            for b in range(prev.start, prev.stop):
                rows.append(C[i, b, cur])
        rank = np.linalg.matrix_rank(np.asarray(rows), tol=tol) if rows else 0
        want = desc.layer_dims[s - 1]
        if rank < want:
            violations.append(Violation("stratification", (s,), float(want - rank)))

    return ValidationReport(desc.name, not violations, tuple(violations))
