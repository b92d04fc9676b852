"""Span tracing of carnot's layers, installed from outside the package.

``Tracer.install`` replaces every public function of each layer module (its
``__all__``, or its non-underscore functions when it has none) with a thin
wrapper, in every carnot module that bound the function by name, and in the
module-level dicts and tuples that hold it (``registry.GROUPS``,
``suite.CRITERIA``).  Three hot methods are wrapped on their class:
``GroupDescriptor.product``, ``ScalarField.value`` and
``ConvexPolytope.from_points``.  ``uninstall`` puts every original back.

A span is the tuple ``(code, span_id, parent_id, start_ns, end_ns,
child_ns, pass_id, extra)``: ``child_ns`` is the time covered by its direct
child spans, so ``end - start - child_ns`` is its self time, and ``extra``
holds the work count of the three class methods.  Spans stay in memory until
``write`` dumps them.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import time

LAYERS = (
    "groups",
    "polynomials",
    "fields",
    "jets",
    "sampling",
    "hull",
    "convexity",
    "second_order",
    "registry",
    "reports",
    "suite",
)


def _product_extra(args, out):
    return out.size // out.shape[-1], args[0].name


def _value_extra(args, out):
    return out.size


def _hull_extra(args, out):
    n_in = len(args[1]) if getattr(args[1], "ndim", 2) == 2 else 1
    return out.dim, n_in, len(out.vertices)


def _group_extra(args, out):
    return args[0].name


# Module functions whose spans also record which group they worked on.
EXTRAS = {"fields.field_coefficients": _group_extra}


def _is_function(obj):
    """Plain functions and ``functools.lru_cache`` wrappers of them."""
    return inspect.isfunction(getattr(obj, "__wrapped__", obj))


class Tracer:
    def __init__(self):
        self.names = []  # code -> "layer.function"
        self.spans = []
        self._stack = [[0, 0]]  # frames [span_id, child_ns]; the root is span 0
        self._ids = itertools.count(1)
        self._pass = [0]
        self._patch_list = None
        self._installed = False
        self._layer_modules = {layer: importlib.import_module(f"carnot.{layer}") for layer in LAYERS}
        self._all_modules = [importlib.import_module("carnot")] + [
            importlib.import_module(f"carnot.{m}") for m in ("cli", "errors")
        ] + list(self._layer_modules.values())

    @property
    def pass_id(self):
        return self._pass[0]

    @pass_id.setter
    def pass_id(self, value):
        self._pass[0] = value

    def _code(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, fn, name, extra=None):
        code = self._code(name)
        stack, record, ids, cell, now = self._stack, self.spans.append, self._ids, self._pass, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [next(ids), 0]
            stack.append(frame)
            out = None
            t0 = now()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = now()
                stack.pop()
                parent[1] += t1 - t0
                record((code, frame[0], parent[0], t0, t1, frame[1], cell[0],
                        extra(args, out) if extra is not None and out is not None else None))

        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _public_functions(module):
        names = getattr(module, "__all__", None)
        if names is None:
            names = [n for n in vars(module) if not n.startswith("_")]
        for n in names:
            obj = getattr(module, n)
            if _is_function(obj) and obj.__module__ == module.__name__:
                yield n, obj

    def _patches(self):
        """(setter, target, key, wrapped, original) for every replacement."""
        from carnot.convexity import ScalarField
        from carnot.groups import GroupDescriptor
        from carnot.hull import ConvexPolytope

        patches = []
        for cls, attr, name, extra in (
            (GroupDescriptor, "product", "groups.product", _product_extra),
            (ScalarField, "value", "convexity.ScalarField.value", _value_extra),
            (ConvexPolytope, "from_points", "hull.from_points", _hull_extra),
        ):
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name, extra))
            else:
                new = self._wrap(raw, name, extra)
            patches.append((setattr, cls, attr, new, raw))

        wrapped = {}  # id(original) -> (original, wrapper)
        for layer, module in self._layer_modules.items():
            for n, fn in self._public_functions(module):
                name = f"{layer}.{n}"
                wrapped[id(fn)] = fn, self._wrap(fn, name, EXTRAS.get(name))

        def lookup(v):
            hit = wrapped.get(id(v))
            return hit[1] if hit is not None and hit[0] is v else None

        for module in self._all_modules:
            for n, val in vars(module).items():
                if lookup(val) is not None:
                    patches.append((setattr, module, n, lookup(val), val))
                elif isinstance(val, dict):
                    for k, v in val.items():
                        if lookup(v) is not None:
                            patches.append((dict.__setitem__, val, k, lookup(v), v))
                elif isinstance(val, tuple) and any(lookup(v) is not None for v in val):
                    patches.append((setattr, module, n, tuple(lookup(v) or v for v in val), val))
        return patches

    def install(self):
        if self._installed:
            return
        if self._patch_list is None:
            self._patch_list = self._patches()
        for op, target, key, new, _ in self._patch_list:
            op(target, key, new)
        self._installed = True

    def uninstall(self):
        if not self._installed:
            return
        for op, target, key, _, old in reversed(self._patch_list):
            op(target, key, old)
        self._installed = False

    def write(self, path, meta):
        with open(path, "w") as fh:
            json.dump({"meta": meta, "names": self.names,
                       "fields": ["code", "id", "parent", "start_ns", "end_ns", "child_ns", "pass", "extra"]}, fh)
            fh.write("\n")
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")))
                fh.write("\n")
