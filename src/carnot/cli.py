"""Command-line surface: group arithmetic, convexity checks and the full
verification suite.

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
from dataclasses import dataclass

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

OP_NAMES = (
    "group-validate",
    "group-product",
    "poly-hess",
    "poly-alij",
    "hconvex-check",
    "subdiff",
    "dermax",
    "mvt",
    "second-fit",
    "second-order-check",
    "suite",
)


@dataclass
class RunConfig:
    operation: str
    group: str | None = None
    descriptor_file: str | None = None
    force: bool = False
    fn: str | None = None
    fn_file: str | None = None
    poly: str | None = None
    point: str | None = None
    x: str | None = None
    y: str | None = None
    h: str | None = None
    count: int = 100
    seed: int = 0
    plan_file: str | None = None
    tol_overrides: tuple = ()
    out: str | None = None


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


def _plan(cfg):
    plan = SamplingPlan(seed=cfg.seed)
    if cfg.plan_file:
        with open(cfg.plan_file) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise DescriptorError(f"plan file {cfg.plan_file} must hold a JSON object, got {type(data).__name__}")
        if "seed" in data:
            raise DescriptorError(f"plan file {cfg.plan_file} sets seed; the run's only seed is --seed")
        tol = data.pop("tol", None)
        try:
            for key in ("radii", "segment_scales"):
                if key in data:
                    data[key] = tuple(data[key])
            plan = _replace(plan, data)
            if tol:
                plan = dataclasses.replace(plan, tol=_replace(plan.tol, tol))
        except TypeError as exc:  # a value of the wrong JSON type
            raise DescriptorError(f"malformed plan file {cfg.plan_file}: {exc}") from exc
    if cfg.tol_overrides:
        kv = dict(item.split("=", 1) for item in cfg.tol_overrides)
        plan = dataclasses.replace(plan, tol=_replace(plan.tol, {k: float(v) for k, v in kv.items()}))
    return plan


def _group(cfg):
    if cfg.descriptor_file:
        return load_descriptor(cfg.descriptor_file, force=cfg.force)
    if not cfg.group:
        raise DescriptorError("either --group or --descriptor is required")
    return build_group(cfg.group)


def _function(cfg, desc):
    if cfg.fn_file:
        return load_function(desc, cfg.fn_file)
    if not cfg.fn:
        raise DescriptorError("either --fn or --fn-file is required")
    name, _, params = cfg.fn.partition(":")
    return function_from_spec(desc, {"builtin": name, "params": json.loads(params) if params else {}})


def _poly(cfg, desc):
    if cfg.poly is None:
        raise DescriptorError("--poly is required (JSON terms or @file)")
    raw = cfg.poly
    if raw.startswith("@"):
        with open(raw[1:]) as fh:
            terms = json.load(fh)
    else:
        terms = json.loads(raw)
    return parse_polynomial(desc, terms)


def run_command(cfg):
    """Dispatch one operation; returns the process exit code."""
    try:
        plan = _plan(cfg)
        records, curves = [], []
        if cfg.operation == "suite":
            records, curves = suite_mod.run_suite(seed=cfg.seed, plan=plan)
        elif cfg.operation == "group-validate":
            desc = load_descriptor(cfg.descriptor_file, force=True) if cfg.descriptor_file else build_group(cfg.group)
            report = validate_descriptor(desc)
            _out(report)
            records.append(
                CheckRecord("group-validate", {"group": desc.name}, float(len(report.violations)), 0.0, report.ok)
            )
        elif cfg.operation == "group-product":
            desc = _group(cfg)
            z = desc.product(_vec(cfg.x, desc.dim, "--x"), _vec(cfg.y, desc.dim, "--y"))
            _out(np.array2string(z, precision=15))
        elif cfg.operation == "poly-hess":
            desc = _group(cfg)
            H, v2 = sym_hessian(desc, _poly(cfg, desc))
            _out("hessian:", np.array2string(H, precision=12))
            _out("v2 gradient:", np.array2string(v2, precision=12))
        elif cfg.operation == "poly-alij":
            desc = _group(cfg)
            if cfg.count < 1:
                raise DescriptorError(f"--count must be a positive integer, got {cfg.count}")
            C = plan.rng("poly-alij").uniform(-1.0, 1.0, (cfg.count, len(monomials_up_to(desc, 2))))
            worst = float(np.max(check_alij(desc, C)))
            records.append(CheckRecord.bounded("poly-alij", {"group": desc.name, "count": cfg.count}, worst, 1e-10))
        elif cfg.operation == "hconvex-check":
            desc = _group(cfg)
            u = _function(cfg, desc)
            rep = hconvexity_check(u, plan)
            records.append(
                CheckRecord.bounded(
                    "hconvex-check",
                    {"group": desc.name, "fn": u.label},
                    rep.max_violation,
                    plan.tol.hconvexity,
                    inclusive=True,
                    detail=f"{rep.samples} samples",
                )
            )
        elif cfg.operation == "subdiff":
            desc = _group(cfg)
            u = _function(cfg, desc)
            x = _vec(cfg.point, desc.dim, "--point")
            V = np.unique(subdifferential_hulls(u, x[None], plan)[0], axis=0)  # distinct rows, for display
            _out(f"{len(V)} distinct sampled gradients generating the hull:")
            _out(np.array2string(V, precision=6))
            _out(f"diameter: {diameters(V[None])[0]:.6g}")
            worst = float(lambda_subdiff_membership(u, x[None], V[None], 0.0, plan)[0])
            inputs = {"group": desc.name, "fn": u.label, "point": cfg.point}
            records.append(
                CheckRecord.bounded("subdiff/vertex-membership", inputs, worst, plan.tol.membership, inclusive=True)
            )
        elif cfg.operation == "dermax":
            desc = _group(cfg)
            u = _function(cfg, desc)
            x = _vec(cfg.point, desc.dim, "--point")
            try:
                (gap,), (subadd,) = dermax_checks(u, x[None], plan)
                metric, detail = float(np.maximum(gap, subadd)), ""
            except NonConvexSliceError as exc:  # the function is not convex along a line: a failed check
                metric, detail = np.inf, str(exc)
            inputs = {"group": desc.name, "fn": u.label, "point": cfg.point}
            records.append(CheckRecord.bounded("dermax", inputs, metric, plan.tol.dermax, detail=detail))
        elif cfg.operation == "mvt":
            desc = _group(cfg)
            u = _function(cfg, desc)
            x, h = _vec(cfg.point, desc.dim, "--point"), _vec(cfg.h, desc.m1, "--h")
            (t,), (p,), (residual,), _ = mean_value_witnesses([u], x[None], h[None], plan)
            _out(f"t = {t:.6g}")
            _out("p =", np.array2string(p, precision=10))
            inputs = {"group": desc.name, "fn": u.label, "point": cfg.point, "h": cfg.h}
            records.append(CheckRecord.bounded("mvt", inputs, residual, plan.tol.mvt_polyhedral))
        elif cfg.operation == "second-fit":
            desc = _group(cfg)
            u = _function(cfg, desc)
            x = _vec(cfg.point, desc.dim, "--point")
            inputs = {"group": desc.name, "fn": u.label, "point": cfg.point}
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
        elif cfg.operation == "second-order-check":
            desc = _group(cfg)
            u = _function(cfg, desc)
            rep = characterize_second_order(u, _vec(cfg.point, desc.dim, "--point"), plan)
            base = {"group": desc.name, "fn": u.label, "point": cfg.point}
            errors = (("expansion", rep.expansion_error), ("gradient", rep.extended_error))
            detail = "; ".join([rep.equivalence] + [f"{name}: {err}" for name, err in errors if err])
            records.append(
                CheckRecord("second-order/equivalence", base, None, None, rep.claims["equivalence"], detail=detail)
            )
            claim_metrics = (("c1_v2_stable", "v2_drift"), ("c3_identity", "claim3_residual"), ("psd", "min_eigenvalue"))
            for claim, metric in claim_metrics:
                known = claim in rep.claims
                records.append(
                    CheckRecord(
                        f"second-order/{claim}",
                        base,
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
        else:
            raise DescriptorError(f"unknown operation {cfg.operation!r}")

        json_path = csv_path = None
        if cfg.out:
            os.makedirs(cfg.out, exist_ok=True)
            json_path = os.path.join(cfg.out, "report.json")
            csv_path = os.path.join(cfg.out, "curves.csv")
        summary = emit_report(records, curves, json_path, csv_path, meta={"operation": cfg.operation, "seed": cfg.seed})
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
    ap = argparse.ArgumentParser(prog="carnot", description=__doc__)
    sub = ap.add_subparsers(dest="operation", required=True)
    for name in OP_NAMES:
        p = sub.add_parser(name)
        p.add_argument("--group", help="builtin spec, e.g. heisenberg:1, free_step2:3, engel, euclidean:2")
        p.add_argument("--descriptor", dest="descriptor_file", help="JSON group descriptor file")
        p.add_argument("--force", action="store_true", help="load descriptors that fail validation")
        p.add_argument("--fn", help="registered function name, optionally name:{json params}")
        p.add_argument("--fn-file", dest="fn_file", help="function-spec JSON file")
        p.add_argument("--poly", help="polynomial terms as JSON, or @file")
        p.add_argument("--point", help="comma-separated coordinates")
        p.add_argument("--x", help="first factor (group-product)")
        p.add_argument("--y", help="second factor (group-product)")
        p.add_argument("--h", help="horizontal direction, comma-separated")
        p.add_argument("--count", type=int, default=100)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--plan-file", dest="plan_file", help="JSON overrides for the sampling plan")
        p.add_argument("--tol", action="append", default=[], dest="tol_overrides", metavar="KEY=VAL")
        p.add_argument("--out", help="directory for report.json and curves.csv")
    return ap


def main(argv=None):
    args = vars(_parser().parse_args(argv))
    args["tol_overrides"] = tuple(args["tol_overrides"])
    return run_command(RunConfig(**args))


if __name__ == "__main__":
    sys.exit(main())
