"""Structured check records, the verdict rules, and report emission.

A report is a JSON document with one record per check (id, digest of the
inputs, metric, tolerance, verdict) plus a CSV of scale/residual curves with
columns ``check_id,tau,residual``.  Serialization is canonical (sorted keys,
repr floats) so that identical runs produce identical bytes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

CURVE_SLACK = 1.1  # a tail step may grow by 10% and still count as a decrease


def curve_converged(residuals, tol):
    """Whether a residual curve, coarsest scale first, converges: every value
    is finite, the finest is below ``tol``, and the last three do not grow
    (beyond ``CURVE_SLACK``) or all lie below ``tol``, as round-off does."""
    res = np.asarray(residuals, dtype=float)
    if not np.all(np.isfinite(res)) or not res[-1] < tol:
        return False
    tail = res[-3:]
    return bool(np.all(tail[1:] <= CURVE_SLACK * tail[:-1] + 1e-15) or np.all(tail < tol))


@dataclass
class CheckRecord:
    check_id: str
    inputs: dict
    metric: float | None
    tolerance: float | None
    passed: bool
    detail: str = ""

    def __post_init__(self):
        self.passed = bool(self.passed)
        if self.metric is not None:
            self.metric = float(self.metric)
        if self.tolerance is not None:
            self.tolerance = float(self.tolerance)

    @classmethod
    def bounded(cls, check_id, inputs, metric, tolerance, inclusive=False, detail=""):
        """A record that passes when ``metric`` is finite and below
        ``tolerance``, or equal to it when ``inclusive``."""
        within = metric <= tolerance if inclusive else metric < tolerance
        return cls(check_id, inputs, metric, tolerance, np.isfinite(metric) and within, detail)

    def digest(self):
        blob = json.dumps(self.inputs, sort_keys=True, default=str).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def to_dict(self):
        return {
            "id": self.check_id,
            "inputs_digest": self.digest(),
            "metric": self.metric,
            "tolerance": self.tolerance,
            "verdict": "pass" if self.passed else "fail",
            "detail": self.detail,
        }

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        metric = "n/a" if self.metric is None else f"{self.metric:.6g}"
        tol = "n/a" if self.tolerance is None else f"{self.tolerance:.3g}"
        out = f"{status} {self.check_id}: metric={metric} tol={tol}"
        return out + (f" ({self.detail})" if self.detail else "")


@dataclass
class CurvePoint:
    check_id: str
    tau: float
    residual: float


def curve_points(check_id, taus, residuals):
    return [CurvePoint(check_id, float(t), float(r)) for t, r in zip(taus, residuals)]


def render_json(records, meta=None):
    doc = {
        "meta": meta or {},
        "records": [r.to_dict() for r in records],
        "summary": {
            "total": len(records),
            "passed": sum(r.passed for r in records),
            "failed": sum(not r.passed for r in records),
        },
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def render_csv(curves):
    lines = ["check_id,tau,residual"]
    lines += [f"{c.check_id},{c.tau!r},{c.residual!r}" for c in curves]
    return "\n".join(lines) + "\n"


def emit_report(records, curves, json_path=None, csv_path=None, meta=None):
    """Write the machine-readable report files; returns the human summary."""
    if json_path is not None:
        with open(json_path, "w") as fh:
            fh.write(render_json(records, meta))
    if csv_path is not None:
        with open(csv_path, "w") as fh:
            fh.write(render_csv(curves))
    lines = [r.line() for r in records]
    failed = [r for r in records if not r.passed]
    lines.append(f"{len(records) - len(failed)}/{len(records)} checks passed")
    return "\n".join(lines)
