"""Built-in groups and test functions, plus the file formats.  Building a
field evaluates nothing: suite criterion 12 checks the built-in functions
for h-convexity, and ``carnot hconvex-check`` any function.

Group descriptors can be loaded from JSON files with fields ``name``,
``layers`` (list of layer dimensions) and ``brackets`` (records
``{"i": .., "j": .., "k": .., "c": ..}`` with 1-based indices); missing
mirror entries are filled antisymmetrically.  Function specs are either
``{"builtin": name, "params": {...}}``, ``{"polynomial": [{"exponents":
[...], "coeff": c}, ...]}`` or ``{"composition": {"op": "sum"|"max",
"terms": [spec, ...]}}``.
"""

from __future__ import annotations

import functools
import inspect
import json
import math

import numpy as np

from .convexity import ScalarField
from .errors import DescriptorError
from .fields import field_matrices
from .groups import GroupDescriptor, validate_descriptor
from .polynomials import evaluate, monomials_up_to, weighted_degree

__all__ = [
    "euclidean",
    "heisenberg",
    "free_step2",
    "engel",
    "GROUPS",
    "build_group",
    "load_descriptor",
    "FUNCTIONS",
    "build_function",
    "load_function",
    "parse_polynomial",
    "smooth_suite",
    "polyhedral_suite",
]


# -- built-in groups -----------------------------------------------------------


def euclidean(n):
    """Abelian R^n: one layer, no brackets."""
    return GroupDescriptor(f"euclidean({n})", (n,), {})


def heisenberg(n=1):
    """Layers (2n, 1) with [e_{2i-1}, e_{2i}] = e_{2n+1}."""
    br = {}
    for i in range(n):
        br[(2 * i, 2 * i + 1, 2 * n)] = 1.0
        br[(2 * i + 1, 2 * i, 2 * n)] = -1.0
    return GroupDescriptor(f"heisenberg({n})", (2 * n, 1), br)


def free_step2(m):
    """Free nilpotent step 2 on m generators: layers (m, m(m-1)/2)."""
    br = {}
    k = m
    for i in range(m):
        for j in range(i + 1, m):
            br[(i, j, k)] = 1.0
            br[(j, i, k)] = -1.0
            k += 1
    return GroupDescriptor(f"free_step2({m})", (m, m * (m - 1) // 2), br)


def engel():
    """Step-3 group with layers (2, 1, 1): [e1,e2] = e3, [e1,e3] = e4."""
    br = {(0, 1, 2): 1.0, (1, 0, 2): -1.0, (0, 2, 3): 1.0, (2, 0, 3): -1.0}
    return GroupDescriptor("engel", (2, 1, 1), br)


GROUPS = {
    "euclidean": euclidean,
    "heisenberg": heisenberg,
    "free_step2": free_step2,
    "engel": engel,
}


def build_group(spec):
    """The built-in group of a spec string like ``heisenberg:1``, built and
    validated once per process: descriptors are immutable, so one is shared."""
    return _build_builtin(spec)


@functools.cache
def _build_builtin(spec):
    name, _, arg = spec.partition(":")
    if name not in GROUPS:
        raise DescriptorError(f"unknown group {name!r}; available: {sorted(GROUPS)}")
    builder = GROUPS[name]
    desc = builder(int(arg)) if arg else builder()
    report = validate_descriptor(desc)
    if not report.ok:
        raise DescriptorError(f"registry group {name!r} failed validation: {report}")
    return desc


def load_descriptor(path, force=False):
    """Load a group descriptor from a JSON file; reject invalid ones unless
    ``force`` is set."""
    with open(path) as fh:
        data = json.load(fh)
    try:
        layers = data["layers"]
        records = data.get("brackets", [])
        name = data.get("name", "descriptor")
    except (KeyError, TypeError) as exc:
        raise DescriptorError(f"malformed descriptor file {path}: {exc}") from exc
    if not isinstance(layers, list):
        raise DescriptorError(f"malformed descriptor file {path}: layers must be a list, got {layers!r}")
    brackets = {}
    try:
        for n, r in enumerate(records, 1):
            ijk, c = (r["i"], r["j"], r["k"]), r["c"]
            for v in ijk:  # refused here, before a list or object index becomes a dict key
                if type(v) is not int:
                    raise DescriptorError(f"bracket record {n}: index {v!r} is not an integer")
            key = tuple(v - 1 for v in ijk)  # 0-based
            if key in brackets and brackets[key] != c:
                raise DescriptorError("conflicting bracket entries for ({},{},{})".format(*ijk))
            brackets[key] = c
        for (i, j, k), c in list(brackets.items()):
            if isinstance(c, (int, float)) and not isinstance(c, bool):  # GroupDescriptor names any other constant
                brackets.setdefault((j, i, k), -c)
    except (KeyError, TypeError) as exc:
        raise DescriptorError(f"malformed bracket record in {path} (expected objects with keys i, j, k, c): {exc}") from exc
    desc = GroupDescriptor(name, layers, brackets)
    report = validate_descriptor(desc)
    if not report.ok and not force:
        raise DescriptorError(f"descriptor failed validation (use force to load anyway):\n{report}")
    return desc


# -- built-in h-convex functions --------------------------------------------------
# affine, quadratic, quad_vertical and euclidean_quadratic are coefficient vectors over
# monomials_up_to(desc, 2), read by ``_poly_field``; max_affine and one_norm sum the horizontal
# columns in index order, with no matmul, so a point's value does not depend on its batch.


def _coefficients(desc, terms, degree):
    """The coefficient vector over ``monomials_up_to(desc, degree)`` of the
    (exponent tuple, coefficient) pairs ``terms``; repeated exponents add up."""
    basis = monomials_up_to(desc, degree)
    vec = np.zeros(len(basis))
    for alpha, c in terms:
        vec[basis.index(tuple(alpha))] += c
    return vec


def _poly_field(desc, c, degree, label):
    """Field of the coefficient vector ``c`` over ``monomials_up_to(desc, degree)``,
    with the exact horizontal gradient ``X[:m1] @ c``."""
    X, _ = field_matrices(desc, degree)
    grads = X[: desc.m1] @ c

    def fn(pts):
        return evaluate(desc, c, pts)

    def grad_h(pts):
        return np.stack([evaluate(desc, g, pts) for g in grads], axis=-1)

    return ScalarField(desc, fn, label=label, grad_h=grad_h)


def _degree2_field(desc, terms, label):
    """``_poly_field`` of degree 2 with coefficient c on the monomial
    prod_{k in ks} x_k of each pair (ks, c) of ``terms``."""
    pairs = [(np.bincount(ks, minlength=desc.dim), c) for ks, c in terms]
    return _poly_field(desc, _coefficients(desc, pairs, 2), 2, label)


def _horizontal_sum(pts, m1, term):
    """sum_i term(i, x_i) over the horizontal coordinates x_i of ``pts``,
    added column by column in index order with no matmul, so a row's value
    does not depend on the batch it comes in."""
    total = term(0, pts[..., 0])
    for i in range(1, m1):
        total = total + term(i, pts[..., i])
    return total


def horizontal_affine(desc, q=None, c=0.0):
    """c + <q, pi_1 x>."""
    q = np.asarray(q, dtype=float) if q is not None else np.array([0.9 * (-0.75) ** i for i in range(desc.m1)])
    return _degree2_field(desc, [((i,), q[i]) for i in range(desc.m1)] + [((), c)], "affine")


def horizontal_quadratic(desc):
    """|pi_1 x|^2; convex along every horizontal line."""
    return _degree2_field(desc, [((i, i), 1.0) for i in range(desc.m1)], "quadratic")


def quad_vertical(desc, alpha=1.0):
    """|pi_1 x|^2 + alpha * (first second-layer coordinate).

    The vertical coordinate is affine along horizontal lines, so the sum
    stays h-convex; its horizontal gradient picks up the rotational
    correction from the field coefficients.
    """
    if desc.step < 2:
        raise DescriptorError("quad_vertical needs a group of step >= 2")
    terms = [((i, i), 1.0) for i in range(desc.m1)] + [((desc.m1,), alpha)]
    return _degree2_field(desc, terms, f"quad_vertical(alpha={alpha:g})")


def max_affine(desc, Q=None, b=None):
    """max_k <q_k, pi_1 x> + b_k; the default pieces give |x_1|."""
    m1 = desc.m1
    if Q is None:
        Q = np.zeros((2, m1))
        Q[0, 0], Q[1, 0] = 1.0, -1.0
    Q = np.asarray(Q, dtype=float)
    b = np.broadcast_to(0.0 if b is None else np.asarray(b, dtype=float), (len(Q),))  # scalar or (k,)

    def branches(pts):
        return [b[k] + _horizontal_sum(pts, m1, lambda i, x: Q[k, i] * x) for k in range(len(Q))]

    def fn(pts):
        return functools.reduce(np.maximum, branches(pts))

    def grad_h(pts):
        first, *rest = branches(pts)
        idx, best = np.zeros(first.shape, dtype=int), first
        for k, v in enumerate(rest, 1):  # the first arg-max branch
            idx, best = np.where(v > best, k, idx), np.maximum(best, v)
        return Q[idx]

    return ScalarField(desc, fn, label="max_affine", grad_h=grad_h)


def one_norm(desc):
    """sum_i |x_i| over the horizontal coordinates."""
    m1 = desc.m1

    def fn(pts):
        return _horizontal_sum(pts, m1, lambda i, x: np.abs(x))

    def grad_h(pts):
        return np.sign(pts[..., :m1])

    return ScalarField(desc, fn, label="one_norm", grad_h=grad_h)


def euclidean_quadratic(desc, S=None):
    """(1/2) <S x, x> on a step-1 group (the classical convex oracle); only
    the symmetric part of S enters."""
    if desc.step != 1:
        raise DescriptorError("euclidean_quadratic is a step-1 wrapper")
    if S is None:
        S = np.eye(desc.dim) + 0.25 * (np.arange(desc.dim)[:, None] == np.arange(desc.dim)[None, :] - 1)
        S = 0.5 * (S + S.T) + np.eye(desc.dim)
    S = np.asarray(S, dtype=float)
    terms = [((i, j), 0.5 * S[i, j]) for i in range(desc.dim) for j in range(desc.dim)]
    return _degree2_field(desc, terms, "euclidean_quadratic")


FUNCTIONS = {
    "affine": horizontal_affine,
    "quadratic": horizontal_quadratic,
    "quad_vertical": quad_vertical,
    "max_affine": max_affine,
    "one_norm": one_norm,
    "euclidean_quadratic": euclidean_quadratic,
}


def build_function(desc, name, **params):
    """Instantiate a registered function.  ``DescriptorError`` unless the
    name is registered and each parameter is one the function takes, with
    finite numbers of its shape for its value: ``c`` and ``alpha`` scalar,
    ``q`` (m1,), ``Q`` (k, m1) with k >= 1 pieces (2 by default), ``b``
    scalar or (k,), ``S`` (dim, dim)."""
    if name not in FUNCTIONS:
        raise DescriptorError(f"unknown function {name!r}; available: {sorted(FUNCTIONS)}")
    known = list(inspect.signature(FUNCTIONS[name]).parameters)[1:] if params else []
    for key, value in params.items():
        if key not in known:
            raise DescriptorError(f"unknown parameter {key!r} of {name!r}; it takes: {', '.join(known) or 'none'}")
        try:
            finite = bool(np.all(np.isfinite(np.asarray(value, dtype=float))))
        except (TypeError, ValueError):
            finite = False
        if not finite:
            raise DescriptorError(f"parameter {key!r} of {name!r} must be a finite number or an array of them, got {value!r}")
    Q, m1, n = params.get("Q"), desc.m1, desc.dim
    k = len(Q) if np.ndim(Q) == 2 and len(Q) else 2
    shapes = {"c": [()], "alpha": [()], "q": [(m1,)], "Q": [(k, m1)], "b": [(), (k,)], "S": [(n, n)]}
    for key, value in params.items():
        if np.shape(value) not in shapes[key]:
            want = f"(k, {m1}) with k >= 1" if key == "Q" else " or ".join(map(str, shapes[key]))
            raise DescriptorError(f"parameter {key!r} of {name!r} must have shape {want}, got {value!r} on {desc.name}")
    return FUNCTIONS[name](desc, **params)


# A polynomial field carries its field matrices, dense (dim, n, n) arrays over
# the n monomials of its degree; larger bases are refused.
_MAX_MONOMIALS = 500


def _basis_size(desc, degree):
    """``len(monomials_up_to(desc, degree))``, counted without listing them."""
    exact = [1] + [0] * degree  # monomials of each exact homogeneous degree
    for w in desc.dilation_exponents:
        for s in range(int(w), degree + 1):
            exact[s] += exact[s - w]
    return sum(exact)


def _parse(desc, terms):
    """``(c, d)``: the coefficient vector of the JSON terms over
    ``monomials_up_to(desc, d)``, d the larger of 2 and their homogeneous degree."""
    try:
        if not isinstance(terms, list):
            raise TypeError(f"expected a JSON list, got {type(terms).__name__}")
        out = [(list(t["exponents"]), float(t["coeff"])) for t in terms]
        for alpha, c in out:
            if not (all(a >= 0 and a == int(a) for a in alpha) and math.isfinite(c)):
                raise ValueError(f"exponents {alpha} with coeff {c}")
            if len(alpha) != desc.dim:
                raise ValueError(f"exponents {alpha} of length {len(alpha)}, expected {desc.dim}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DescriptorError(f"malformed polynomial terms: {exc}") from exc
    out = [(tuple(int(a) for a in alpha), c) for alpha, c in out if c]
    degree = max([2] + [weighted_degree(alpha, desc) for alpha, _ in out])
    # the basis of degree d holds 1, x1, ..., x1^d: count no further than that
    if _basis_size(desc, min(degree, _MAX_MONOMIALS)) > _MAX_MONOMIALS:
        raise DescriptorError(
            f"a polynomial of homogeneous degree {degree} on {desc.name} spans more than {_MAX_MONOMIALS} monomials"
        )
    return _coefficients(desc, out, degree), degree


def parse_polynomial(desc, terms):
    """The coefficient vector of JSON terms ``[{"exponents": [...], "coeff": c}, ...]``
    over ``monomials_up_to(desc, d)``, d the larger of 2 and their homogeneous
    degree; ``DescriptorError`` unless exponents are nonnegative integers, one
    per coordinate, and each coefficient a finite number."""
    return _parse(desc, terms)[0]


def _combine(desc, op, fields):
    if op == "sum":
        def fn(pts):
            return sum(f.value(pts) for f in fields)

        grad = None
        if all(f.grad_h is not None for f in fields):
            def grad(pts):
                return sum(f.gradient(pts) for f in fields)
        label = "+".join(f.label for f in fields)
    else:  # "max"
        def fn(pts):
            return np.max(np.stack([f.value(pts) for f in fields]), axis=0)

        grad = None
        if all(f.grad_h is not None for f in fields):
            def grad(pts):
                vals = np.stack([f.value(pts) for f in fields])
                idx = np.argmax(vals, axis=0)
                gs = np.stack([f.gradient(pts) for f in fields])
                return np.take_along_axis(gs, idx[None, ..., None], axis=0)[0]
        label = "max(" + ",".join(f.label for f in fields) + ")"
    return ScalarField(desc, fn, label=label, grad_h=grad)


def function_from_spec(desc, spec):
    """Build a field from a function-spec dict (see module docstring)."""
    if not isinstance(spec, dict):
        raise DescriptorError(f"a function spec must be a JSON object, got {spec!r}")
    if "builtin" in spec:
        params = spec.get("params", {})
        if not isinstance(params, dict):
            raise DescriptorError(f"the params of {spec['builtin']!r} must be a JSON object, got {params!r}")
        return build_function(desc, spec["builtin"], **params)
    if "polynomial" in spec:  # a polynomial literal, with exact gradient
        return _poly_field(desc, *_parse(desc, spec["polynomial"]), "polynomial")
    if "composition" in spec:
        comp = spec["composition"]
        if not (isinstance(comp, dict) and comp.get("op") in ("sum", "max") and isinstance(comp.get("terms"), list) and comp["terms"]):
            raise DescriptorError(
                f"a composition must be a JSON object with an op of sum or max and a list of at least one term, got {comp!r}"
            )
        return _combine(desc, comp["op"], [function_from_spec(desc, s) for s in comp["terms"]])
    raise ValueError("function spec needs one of: builtin, polynomial, composition")


def load_function(desc, path):
    with open(path) as fh:
        return function_from_spec(desc, json.load(fh))


def smooth_suite(desc):
    """The smooth registry functions available on a descriptor."""
    names = ["affine", "quadratic"]
    if desc.step >= 2:
        names.append("quad_vertical")
    if desc.step == 1:
        names.append("euclidean_quadratic")
    return [build_function(desc, n) for n in names]


def polyhedral_suite(desc):
    return [build_function(desc, n) for n in ("one_norm", "max_affine")]
