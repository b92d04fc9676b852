"""Command-line surface: group arithmetic, convexity checks and the full
verification suite.

Each operation takes only the flags that its ``OPS`` entry names, so
argparse refuses any other flag (exit 2), and argparse holds every default.

Exit codes: 0 all asserted checks pass, 1 a check failed, 2 configuration
error, 3 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import traceback

import numpy as np

from . import suite as suite_mod
from .convexity import (
    dermax_checks,
    hconvexity_check,
    lambda_subdiff_membership,
    mean_value_witnesses,
    subdifferential_hulls,
)
from .errors import CarnotError, DescriptorError, NonConvexSliceError, NonSingletonSubdifferential
from .groups import validate_descriptor
from .hull import diameters
from .jets import check_alij, sym_hessian
from .polynomials import monomials_up_to
from .registry import build_group, function_from_spec, load_descriptor, load_function, parse_polynomial
from .reports import CheckRecord, curve_points, emit_report
from .sampling import SamplingPlan
from .second_order import characterize_second_order, fit_expansion, gradient_with_certificate

# The flags each operation reads; its subparser takes these and no others.
_GROUP = ("group", "descriptor", "force")
_RUN = ("seed", "plan-file", "tol", "out")
_FIELD = _GROUP + ("fn", "fn-file")
OPS = {
    "group-validate": ("group", "descriptor", "out"),
    "group-product": _GROUP + ("x", "y"),
    "poly-hess": _GROUP + ("poly",),
    "poly-alij": _GROUP + ("count", "seed", "out"),
    "hconvex-check": _FIELD + _RUN,
    "subdiff": _FIELD + ("point",) + _RUN,
    "dermax": _FIELD + ("point",) + _RUN,
    "mvt": _FIELD + ("point", "h") + _RUN,
    "second-fit": _FIELD + ("point",) + _RUN,
    "second-order-check": _FIELD + ("point",) + _RUN,
    "suite": _RUN,
}

_FLAGS = {
    "group": {"help": "builtin spec, e.g. heisenberg:1, free_step2:3, engel, euclidean:2"},
    "descriptor": {"help": "JSON group descriptor file"},
    "force": {"action": "store_true", "help": "load descriptors that fail validation"},
    "fn": {"help": "registered function name, optionally name:{json params}"},
    "fn-file": {"help": "function-spec JSON file"},
    "poly": {"help": "polynomial terms as JSON, or @file"},
    "point": {"help": "comma-separated coordinates"},
    "x": {"help": "first factor"},
    "y": {"help": "second factor"},
    "h": {"help": "horizontal direction, comma-separated"},
    "count": {"type": int, "default": 100},
    "seed": {"type": int, "default": 0},
    "plan-file": {"help": "JSON overrides for the sampling plan"},
    "tol": {"action": "append", "default": [], "metavar": "KEY=VAL"},
    "out": {"help": "directory for report.json and curves.csv"},
}


def _vec(s, dim, flag):
    if s is None:
        raise DescriptorError(f"{flag} is required (comma-separated coordinates)")
    v = np.array([float(t) for t in s.split(",")])
    if len(v) != dim:
        raise DescriptorError(f"{flag} expects {dim} coordinates, got {len(v)}")
    if not np.all(np.isfinite(v)):
        raise DescriptorError(f"{flag} has a non-finite coordinate: {s}")
    return v


def _out(*args):
    """``print`` to stdout that survives a reader closing it early
    (``carnot ... | head``): the rest of the output goes to the null device
    and the command still ends with its own exit status."""
    try:
        print(*args, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _replace(obj, changes):
    """``dataclasses.replace`` that reports unknown keys as configuration errors."""
    unknown = sorted(set(changes) - {f.name for f in dataclasses.fields(obj)})
    if unknown:
        raise DescriptorError(f"unknown {type(obj).__name__} key(s): {', '.join(unknown)}")
    return dataclasses.replace(obj, **changes)


def _plan(args):
    opts = vars(args)
    plan = SamplingPlan(seed=args.seed)
    plan_file = opts.get("plan_file")
    if plan_file:
        with open(plan_file) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise DescriptorError(f"plan file {plan_file} must hold a JSON object, got {type(data).__name__}")
        if "seed" in data:
            raise DescriptorError(f"plan file {plan_file} sets seed; the run's only seed is --seed")
        tol = data.pop("tol", {})
        if not isinstance(tol, dict):
            raise DescriptorError(f"plan file {plan_file}: tol must be a JSON object, got {type(tol).__name__}")
        try:
            for key in ("radii", "segment_scales"):
                if key in data:
                    data[key] = tuple(data[key])
            plan = _replace(plan, data)
            if tol:
                plan = dataclasses.replace(plan, tol=_replace(plan.tol, tol))
        except TypeError as exc:  # a value of the wrong JSON type
            raise DescriptorError(f"malformed plan file {plan_file}: {exc}") from exc
    if opts.get("tol"):
        plan = dataclasses.replace(plan, tol=_replace(plan.tol, dict(_tol_item(item) for item in args.tol)))
    return plan


def _tol_item(item):
    """The (key, value) pair of one ``--tol KEY=VALUE``."""
    key, eq, value = item.partition("=")
    if not eq:
        raise DescriptorError(f"--tol expects KEY=VALUE, got {item!r}")
    try:
        return key, float(value)
    except ValueError:
        raise DescriptorError(f"--tol {item}: not a number") from None


def _group(args):
    if args.descriptor:
        # group-validate takes no --force: it loads any descriptor to report on it
        return load_descriptor(args.descriptor, force=args.operation == "group-validate" or args.force)
    if not args.group:
        raise DescriptorError("either --group or --descriptor is required")
    return build_group(args.group)


def _function(args, desc):
    if args.fn_file:
        return load_function(desc, args.fn_file)
    if not args.fn:
        raise DescriptorError("either --fn or --fn-file is required")
    name, _, params = args.fn.partition(":")
    return function_from_spec(desc, {"builtin": name, "params": json.loads(params) if params else {}})


def _poly(args, desc):
    if args.poly is None:
        raise DescriptorError("--poly is required (JSON terms or @file)")
    raw = args.poly
    if raw.startswith("@"):
        with open(raw[1:]) as fh:
            terms = json.load(fh)
    else:
        terms = json.loads(raw)
    return parse_polynomial(desc, terms)


def run_command(args):
    """Run one parsed operation; returns the process exit code.

    The plan, the group, the field and ``--point`` are resolved once, before
    the dispatch, for the operations whose ``OPS`` entry names their flags.
    """
    try:
        op, flags, opts = args.operation, OPS[args.operation], vars(args)
        plan = _plan(args) if "seed" in flags else None
        desc = _group(args) if "group" in flags else None
        if "fn" in flags:
            u = _function(args, desc)
            inputs = {"group": desc.name, "fn": u.label}
        if "point" in flags:
            x = _vec(args.point, desc.dim, "--point")
            inputs["point"] = args.point
        records, curves = [], []
        if op == "suite":
            records, curves = suite_mod.run_suite(seed=args.seed, plan=plan)
        elif op == "group-validate":
            report = validate_descriptor(desc)
            _out(report)
            records.append(
                CheckRecord("group-validate", {"group": desc.name}, float(len(report.violations)), 0.0, report.ok)
            )
        elif op == "group-product":
            z = desc.product(_vec(args.x, desc.dim, "--x"), _vec(args.y, desc.dim, "--y"))
            _out(np.array2string(z, precision=15))
        elif op == "poly-hess":
            H, v2 = sym_hessian(desc, _poly(args, desc))
            _out("hessian:", np.array2string(H, precision=12))
            _out("v2 gradient:", np.array2string(v2, precision=12))
        elif op == "poly-alij":
            if args.count < 1:
                raise DescriptorError(f"--count must be a positive integer, got {args.count}")
            C = plan.rng("poly-alij").uniform(-1.0, 1.0, (args.count, len(monomials_up_to(desc, 2))))
            worst = float(np.max(check_alij(desc, C)))
            records.append(CheckRecord.bounded("poly-alij", {"group": desc.name, "count": args.count}, worst, 1e-10))
        elif op == "hconvex-check":
            rep = hconvexity_check(u, plan)
            tol, detail = plan.tol.hconvexity, f"{rep.samples} samples"
            record = CheckRecord.bounded("hconvex-check", inputs, rep.max_violation, tol, inclusive=True, detail=detail)
            if not record.passed:  # name the worst segment, at x (lambda h)
                at, seg = (", ".join(f"{c:.6g}" for c in rep.worst[key]) for key in ("x", "h"))
                record.detail += f"; worst at x=({at}), h=({seg}), lambda={rep.worst['lambda']:.6g}"
            records.append(record)
        elif op == "subdiff":
            V = np.unique(subdifferential_hulls(u, x[None], plan)[0], axis=0)  # distinct rows, for display
            _out(f"{len(V)} distinct sampled gradients generating the hull:")
            _out(np.array2string(V, precision=6))
            _out(f"diameter: {diameters(V[None])[0]:.6g}")
            worst = float(lambda_subdiff_membership(u, x[None], V[None], 0.0, plan)[0])
            records.append(
                CheckRecord.bounded("subdiff/vertex-membership", inputs, worst, plan.tol.membership, inclusive=True)
            )
        elif op == "dermax":
            try:
                [((gap,), (subadd,))] = dermax_checks([(u, x[None])], plan)
                metric, detail = float(np.maximum(gap, subadd)), ""
            except NonConvexSliceError as exc:  # the function is not convex along a line: a failed check
                metric, detail = np.inf, str(exc)
            records.append(CheckRecord.bounded("dermax", inputs, metric, plan.tol.dermax, detail=detail))
        elif op == "mvt":
            h = _vec(args.h, desc.m1, "--h")
            inputs["h"] = args.h
            (w,) = mean_value_witnesses([(u, x[None], h[None])], plan)
            _out(f"t = {w.t[0]:.6g}")
            _out("p =", np.array2string(w.p[0], precision=10))
            records.append(CheckRecord.bounded("mvt", inputs, w.residual[0], plan.tol.mvt_polyhedral, detail=w.detail))
        elif op == "second-fit":
            try:
                grad, _ = gradient_with_certificate(u, x, plan)
            except NonSingletonSubdifferential as exc:  # no gradient at x: a failed check
                records.append(CheckRecord.bounded("second-fit", inputs, np.nan, plan.tol.fit, detail=str(exc)))
            else:
                fit = fit_expansion(u, x, grad, plan)
                _out("hessian:", np.array2string(fit.hessian, precision=8))
                _out("v2:", np.array2string(fit.v2, precision=8))
                records.append(CheckRecord("second-fit", inputs, float(fit.residuals[-1]), plan.tol.fit, fit.converged))
                curves += curve_points("second-fit/residual", fit.taus, fit.residuals)
        elif op == "second-order-check":
            rep = characterize_second_order(u, x, plan)
            errors = (("expansion", rep.expansion_error), ("gradient", rep.extended_error))
            detail = "; ".join([rep.equivalence] + [f"{name}: {err}" for name, err in errors if err])
            records.append(
                CheckRecord("second-order/equivalence", inputs, None, None, rep.claims["equivalence"], detail=detail)
            )
            claim_metrics = (("c1_v2_stable", "v2_drift"), ("c3_identity", "claim3_residual"), ("psd", "min_eigenvalue"))
            for claim, metric in claim_metrics:
                known = claim in rep.claims
                records.append(
                    CheckRecord(
                        f"second-order/{claim}",
                        inputs,
                        rep.metrics.get(metric),
                        None,
                        bool(rep.claims.get(claim, rep.equivalence == "consistent: neither")),
                        detail="" if known else "not applicable (no second-order structure)",
                    )
                )
            if rep.expansion is not None:
                curves += curve_points("second-order/expansion-residual", rep.expansion.taus, rep.expansion.residuals)
            if rep.extended is not None:
                curves += curve_points("second-order/gradient-residual", rep.extended.radii, rep.extended.residuals)

        json_path = csv_path = None
        if opts.get("out"):
            os.makedirs(args.out, exist_ok=True)
            json_path = os.path.join(args.out, "report.json")
            csv_path = os.path.join(args.out, "curves.csv")
        # group-validate draws nothing and records seed 0
        meta = {"operation": op, "seed": opts.get("seed", 0)}
        summary = emit_report(records, curves, json_path, csv_path, meta=meta)
        if records:
            _out(summary)
        return 0 if all(r.passed for r in records) else 1
    except (CarnotError, FileNotFoundError, KeyError, json.JSONDecodeError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


def _parser():
    ap = argparse.ArgumentParser(prog="carnot", description=__doc__, allow_abbrev=False)
    sub = ap.add_subparsers(dest="operation", required=True)
    for name, flags in OPS.items():
        p = sub.add_parser(name, allow_abbrev=False)  # so --h is no --help where there is no --h
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return ap


def main(argv=None):
    return run_command(_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
