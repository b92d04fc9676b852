"""Seeded defects that the suite must catch.

Each entry of ``DEFECTS`` plants one defect by monkeypatch and names the
records of ``run_suite(0)`` that it must turn to FAIL: exactly those, so a
defect that no record catches, or a record that stops catching it, shows
here.
"""

import pytest

from carnot import ScalarField, convexity, fields, jets, reports
from carnot import second_order as second_order_mod
from carnot import suite as suite_mod
from carnot.suite import run_suite

MVT_RECORDS = {
    f"mvt/{group}/{kind}"
    for group in ("heisenberg:1", "heisenberg:2", "free_step2:3", "engel")
    for kind in ("smooth", "polyhedral")
}


def _short_section_search(monkeypatch):
    # 3 steps, whatever the plan, leave a bracket of (2/17)^3 ~ 1.6e-3
    # around the extremum
    monkeypatch.setattr(convexity, "_section_steps", lambda plan: 3)


def _unzoomed_mignot_shells(monkeypatch):
    # quotient hulls on the finest shell at every scale instead of one
    # shrunk by tau, so their resolution no longer follows the zoom
    shell_gradients = second_order_mod._shell_gradients

    def unzoomed(runs, xs, radius, plan):
        return shell_gradients(runs, xs, plan.radii[-1], plan)

    monkeypatch.setattr(second_order_mod, "_shell_gradients", unzoomed)


def _scaled_analytic_gradients(monkeypatch):
    gradient = ScalarField.gradient
    monkeypatch.setattr(ScalarField, "gradient", lambda self, pts: 1.001 * gradient(self, pts))


def _coarsest_curve_rule(monkeypatch):
    # every convergence verdict reads only the coarsest value of its curve
    rule = reports.curve_converged
    for module in (convexity, second_order_mod):
        monkeypatch.setattr(module, "curve_converged", lambda residuals, tol: rule(residuals[:1], tol))


def _doubled_field_coefficients(monkeypatch):
    # the rotational constants at c^l_ij instead of c^l_ij / 2, wherever the
    # suite and the jet identities read them
    coefficients = fields.field_coefficients
    for module in (suite_mod, jets):
        monkeypatch.setattr(module, "field_coefficients", lambda desc: 2 * coefficients(desc))


DEFECTS = {
    "section_steps_3": (_short_section_search, MVT_RECORDS | {"mvt/lambda-relaxed"}),
    "mignot_shells_without_tau": (_unzoomed_mignot_shells, {"mignot/quadratic", "mignot/quad_vertical(alpha=1)"}),
    "curve_rule_reads_coarsest": (_coarsest_curve_rule, {"first-order/smooth"}),
    "analytic_gradient_x1.001": (
        _scaled_analytic_gradients,
        MVT_RECORDS | {"second-order/h1/extended-diff", "second-order/h1/claim3", "euclidean/extended-diff"},
    ),
    "field_coefficients_x2": (
        _doubled_field_coefficients,
        {"structure/heisenberg1/rotational", "second-order/h1/claim3"}
        | {f"field-identity/{group}" for group in ("heisenberg:1", "heisenberg:2", "free_step2:3", "engel")},
    ),
}


@pytest.mark.parametrize("defect", list(DEFECTS))
def test_defect_fails_its_records(defect, monkeypatch):
    plant, expected = DEFECTS[defect]
    plant(monkeypatch)
    records, _ = run_suite(0)
    assert {r.check_id for r in records if not r.passed} == expected
