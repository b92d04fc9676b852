import hashlib
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import carnot
from carnot import (
    DescriptorError,
    build_function,
    build_group,
    load_descriptor,
    load_function,
    validate_descriptor,
)
from carnot import cli as cli_mod
from carnot.cli import OPS, _parser, main
from carnot.convexity import ScalarField, hconvexity_check
from carnot import registry
from carnot.registry import function_from_spec, polyhedral_suite, smooth_suite
from carnot.reports import CheckRecord, CurvePoint, curve_converged, emit_report, render_csv
from carnot.suite import _cert_plan


class TestGroupRegistry:
    def test_all_builtins_validate(self):
        for spec in ("euclidean:3", "heisenberg:1", "heisenberg:2", "free_step2:3", "free_step2:4", "engel"):
            assert validate_descriptor(build_group(spec)).ok

    def test_heisenberg_layers(self):
        desc = build_group("heisenberg:2")
        assert desc.layer_dims == (4, 1)
        # [e1, e2] = e5 and [e3, e4] = e5
        e = np.eye(5)
        assert np.allclose(desc.structure[0, 1], e[4])
        assert np.allclose(desc.structure[2, 3], e[4])

    def test_free_step2_dims(self):
        desc = build_group("free_step2:4")
        assert desc.layer_dims == (4, 6)

    def test_engel_structure(self):
        desc = build_group("engel")
        assert desc.layer_dims == (2, 1, 1) and desc.step == 3

    def test_unknown_group(self):
        with pytest.raises(DescriptorError):
            build_group("nilpotent:9")

    @pytest.mark.parametrize("spec", ["euclidean:2", "euclidean:3", "heisenberg:1", "heisenberg:2", "free_step2:3", "engel"])
    def test_shared_descriptor_is_read_only(self, spec):
        # one descriptor per spec serves the whole process, so no caller may
        # change it for the next
        desc = build_group(spec)
        assert build_group(spec) is desc
        arrays = {name: a for name, a in vars(desc).items() if isinstance(a, np.ndarray)}
        assert {"structure", "dilation_exponents"} <= set(arrays)
        # the group law's term tables are tuples all the way down
        assert isinstance(desc._terms, tuple)
        assert all(isinstance(level, tuple) and all(isinstance(t, tuple) for t in level) for level in desc._terms)
        for name, a in arrays.items():
            with pytest.raises(ValueError, match="read-only"):
                a.reshape(-1)[:1] = 0


class TestFunctionRegistry:
    def test_suites_cover_group_kinds(self, h1, r3):
        assert {u.label for u in polyhedral_suite(h1)} == {"one_norm", "max_affine"}
        labels = {u.label for u in smooth_suite(r3)}
        assert "euclidean_quadratic" in labels

    def test_quad_vertical_requires_step2(self, r3):
        with pytest.raises(DescriptorError):
            build_function(r3, "quad_vertical")

    def test_unknown_function(self, h1):
        with pytest.raises(KeyError):
            build_function(h1, "nope")

    def test_unknown_parameter_names_the_ones_taken(self, h1, capsys, monkeypatch):
        # the parameter names are read only for a call that passes parameters,
        # and an unknown one is still refused with the names the function takes
        signature = registry.inspect.signature

        def unread(fn):
            raise AssertionError("parameter names read for a call without parameters")

        monkeypatch.setattr(registry, "inspect", SimpleNamespace(signature=unread))
        for name in ("affine", "quadratic", "quad_vertical", "max_affine", "one_norm"):
            build_function(h1, name)
        monkeypatch.setattr(registry, "inspect", SimpleNamespace(signature=signature))
        with pytest.raises(DescriptorError) as err:
            build_function(h1, "max_affine", zz=1)
        assert str(err.value) == "unknown parameter 'zz' of 'max_affine'; it takes: Q, b"
        with pytest.raises(DescriptorError) as err:
            build_function(h1, "one_norm", alpha=1.0)
        assert str(err.value) == "unknown parameter 'alpha' of 'one_norm'; it takes: none"
        assert main(["hconvex-check", "--group", "heisenberg:1", "--fn", 'max_affine:{"zz":1}']) == 2
        assert "unknown parameter 'zz' of 'max_affine'; it takes: Q, b" in capsys.readouterr().err

    def test_building_evaluates_nothing(self, h1, tmp_path, monkeypatch):
        # h-convexity is checked where it is reported (criterion 12 and
        # hconvex-check), so no point of the group passes through a field
        # while it is built
        points = []
        value = ScalarField.value

        def counted(self, pts):
            points.append(np.size(pts) // self.desc.dim)
            return value(self, pts)

        monkeypatch.setattr(ScalarField, "value", counted)
        terms = [{"exponents": [2, 0, 0], "coeff": 1.0}, {"exponents": [0, 0, 1], "coeff": 0.5}]
        path = tmp_path / "fn.json"
        path.write_text(json.dumps({"polynomial": terms}))
        for name in ("affine", "quadratic", "quad_vertical", "max_affine", "one_norm"):
            build_function(h1, name)
        function_from_spec(h1, {"builtin": "quad_vertical", "params": {"alpha": 2.0}})
        function_from_spec(h1, {"polynomial": terms})
        function_from_spec(h1, {"composition": {"op": "max", "terms": [{"builtin": "affine"}, {"polynomial": terms}]}})
        load_function(h1, path)
        assert sum(points) == 0


def _fd_gradient_gap(u, seed):
    """The largest gap between the analytic horizontal gradient of ``u`` and
    central differences of its value along each e_i, X_i u(x) = d/dt u(x (t e_i)),
    at seeded points whose horizontal coordinates stay 0.05 off zero (the
    kinks of one_norm and of the default max_affine)."""
    desc, eps = u.desc, 1e-5
    x = np.random.default_rng(seed).uniform(-0.8, 0.8, (60, desc.dim))
    x = x[np.min(np.abs(x[:, : desc.m1]), axis=1) > 0.05][:12]
    steps = desc.embed_horizontal(eps * np.eye(desc.m1))
    fd = np.stack([(u.value(desc.product(x, e)) - u.value(desc.product(x, -e))) / (2 * eps) for e in steps], axis=-1)
    return float(np.max(np.abs(u.gradient(x) - fd)))


class TestGradients:
    @pytest.mark.parametrize("spec", ["euclidean:2", "euclidean:3", "heisenberg:1", "heisenberg:2", "free_step2:3", "engel"])
    def test_every_builtin_gradient_agrees_with_its_value(self, spec):
        desc = build_group(spec)
        built = 0
        for name in registry.FUNCTIONS:
            try:
                u = build_function(desc, name)
            except DescriptorError:  # quad_vertical needs step >= 2, euclidean_quadratic step 1
                continue
            built += 1
            assert _fd_gradient_gap(u, seed=len(name)) < 1e-8, name
        assert built == 5

    def test_nonsymmetric_S(self):
        # only the symmetric part of S enters 0.5 <S x, x>; S x is not its gradient
        u = build_function(build_group("euclidean:2"), "euclidean_quadratic", S=[[1.0, 1.0], [0.0, 1.0]])
        assert _fd_gradient_gap(u, seed=0) < 1e-8

    @pytest.mark.parametrize(
        "op", [["second-order-check"], ["mvt", "--h", "0.5,-0.3"], ["dermax"]], ids=["second-order-check", "mvt", "dermax"]
    )
    def test_nonsymmetric_S_passes_the_checks(self, capsys, op):
        fn = 'euclidean_quadratic:{"S":[[1,1],[0,1]]}'
        assert main(op + ["--group", "euclidean:2", "--fn", fn, "--point", "0.1,0.2"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "PASS" in out


class TestDescriptorFiles:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "h1.json"
        path.write_text(
            json.dumps(
                {
                    "name": "h1-file",
                    "layers": [2, 1],
                    "brackets": [{"i": 1, "j": 2, "k": 3, "c": 1.0}],
                }
            )
        )
        desc = load_descriptor(path)
        assert desc.dim == 3 and validate_descriptor(desc).ok
        # mirror entry filled antisymmetrically
        assert desc.structure[1, 0, 2] == -1.0

    def test_invalid_rejected_unless_forced(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad", "layers": [2, 1], "brackets": []}))
        with pytest.raises(DescriptorError):
            load_descriptor(path)
        desc = load_descriptor(path, force=True)
        assert not validate_descriptor(desc).ok

    def test_conflicting_entries(self, tmp_path):
        path = tmp_path / "conflict.json"
        path.write_text(
            json.dumps(
                {
                    "layers": [2, 1],
                    "brackets": [
                        {"i": 1, "j": 2, "k": 3, "c": 1.0},
                        {"i": 1, "j": 2, "k": 3, "c": 2.0},
                    ],
                }
            )
        )
        with pytest.raises(DescriptorError):
            load_descriptor(path)

    def test_step4_from_file(self, tmp_path):
        path = tmp_path / "filiform.json"
        path.write_text(
            json.dumps(
                {
                    "name": "filiform4",
                    "layers": [2, 1, 1, 1],
                    "brackets": [
                        {"i": 1, "j": 2, "k": 3, "c": 1.0},
                        {"i": 1, "j": 3, "k": 4, "c": 1.0},
                        {"i": 1, "j": 4, "k": 5, "c": 1.0},
                    ],
                }
            )
        )
        desc = load_descriptor(path)
        assert desc.step == 4 and validate_descriptor(desc).ok


class TestFunctionFiles:
    def test_builtin_spec(self, h1, plan, tmp_path):
        path = tmp_path / "fn.json"
        path.write_text(json.dumps({"builtin": "quad_vertical", "params": {"alpha": 2.0}}))
        u = load_function(h1, path)
        assert "alpha=2" in u.label
        assert hconvexity_check(u, _cert_plan(plan)).max_violation <= 1e-10

    def test_polynomial_spec(self, h1):
        u = function_from_spec(
            h1,
            {"polynomial": [{"exponents": [2, 0, 0], "coeff": 1.0}, {"exponents": [0, 0, 1], "coeff": 0.5}]},
        )
        x = np.array([0.5, 1.0, 2.0])
        assert u.value(x[None])[0] == pytest.approx(0.25 + 1.0)
        # exact gradient from the field calculus: X1 u = 2 x1 - 0.5 x2 / 2
        g = u.gradient(x[None])[0]
        assert g[0] == pytest.approx(2 * 0.5 + 0.5 * (-x[1] / 2))

    def test_composition_max(self, h1, plan):
        spec = {
            "composition": {
                "op": "max",
                "terms": [
                    {"builtin": "affine", "params": {"q": [1.0, 0.0]}},
                    {"builtin": "affine", "params": {"q": [-1.0, 0.0]}},
                ],
            }
        }
        u = function_from_spec(h1, spec)
        assert hconvexity_check(u, _cert_plan(plan)).max_violation <= 1e-10
        pts = np.array([[0.5, 0, 0], [-0.5, 0, 0]])
        assert np.allclose(u.value(pts), [0.5, 0.5])
        assert np.allclose(u.gradient(pts), [[1, 0], [-1, 0]])

    def test_max_affine_scalar_offset(self, h1, capsys):
        # a scalar b is every branch's offset, as the shape table allows
        x = np.array([[0.3, -0.2, 0.1], [-0.7, 0.4, 2.0], [0.0, 0.0, 0.0]])
        Q = np.array([[1.0, 0.0], [-1.0, 0.0]])
        expected = np.max(x[:, :2] @ Q.T, axis=-1) + 0.5
        for u in (
            build_function(h1, "max_affine", b=0.5),
            function_from_spec(h1, {"builtin": "max_affine", "params": {"b": 0.5}}),
        ):
            assert np.allclose(u.value(x), expected, rtol=0, atol=1e-15)
            assert np.array_equal(u.gradient(x), [[1, 0], [-1, 0], [1, 0]])
        assert np.array_equal(build_function(h1, "max_affine", b=[0.5, 0.5]).value(x), u.value(x))
        assert main(["hconvex-check", "--group", "heisenberg:1", "--fn", 'max_affine:{"b":0.5}']) == 0
        assert "1/1 checks passed" in capsys.readouterr().out

    def test_composition_sum(self, h1):
        spec = {"composition": {"op": "sum", "terms": [{"builtin": "quadratic"}, {"builtin": "affine"}]}}
        u = function_from_spec(h1, spec)
        x = np.array([[0.3, -0.2, 0.1]])
        a = build_function(h1, "quadratic")
        b = build_function(h1, "affine")
        assert u.value(x)[0] == pytest.approx(a.value(x)[0] + b.value(x)[0])


class TestReports:
    def test_empty_report_valid(self, tmp_path):
        out = tmp_path / "r.json"
        csv = tmp_path / "c.csv"
        emit_report([], [], out, csv)
        doc = json.loads(out.read_text())
        assert doc["records"] == [] and doc["summary"]["total"] == 0
        assert csv.read_text() == "check_id,tau,residual\n"

    def test_record_fields(self):
        rec = CheckRecord("a/b", {"x": 1}, np.float64(0.5), 1e-3, np.bool_(True))
        d = rec.to_dict()
        assert d["verdict"] == "pass" and isinstance(d["metric"], float)
        assert len(d["inputs_digest"]) == 12
        json.dumps(d)

    def test_csv_rows(self):
        curves = [CurvePoint("c", 0.5, 0.1), CurvePoint("c", 0.25, 0.05)]
        text = render_csv(curves)
        assert text.splitlines()[0] == "check_id,tau,residual"
        assert len(text.splitlines()) == 3

    # residual curves from suite runs, coarsest scale first
    CURVES = {
        # Mignot excess of an affine field under FD gradients (seed 0):
        # round-off divided by tau doubles per halving, far under tolerance
        "fd_mignot_affine": (
            [1.9917e-10, 3.8965e-10, 7.7078e-10, 1.5331e-09, 3.0579e-09, 6.1075e-09, 1.2207e-08, 2.4405e-08, 4.8802e-08],
            1e-2,
            True,
        ),
        # the first-order ladder of max_affine at its kink, at 5% of its first value
        "flat_kink_ladder": ([0.9159433976075573] * 8, 0.05 * 0.9159433976075573, False),
        # an exact fit's gradient residual, jittering at round-off (seed 0)
        "round_off_jitter": (
            [1.4803e-15, 1.4803e-15, 1.4918e-15, 1.1255e-15, 1.4832e-15, 9.298e-16, 1.1255e-15, 1.1703e-15],
            1e-3,
            True,
        ),
        "nan_entry": ([1e-2, np.nan, 1e-6, 1e-7], 1e-3, False),
        "inf_entry": ([np.inf, 1e-5, 1e-6, 1e-7], 1e-3, False),
        "finest_nan": ([1e-2, 1e-4, 1e-6, np.nan], 1e-3, False),
        "tail_grows_over_tol": ([1e-2, 5e-4, 2e-3, 9e-4], 1e-3, False),
        "tail_decreases_through_tol": ([1e-2, 5e-3, 2e-3, 9e-4], 1e-3, True),
    }

    @pytest.mark.parametrize("name", list(CURVES))
    def test_curve_converged(self, name):
        residuals, tol, expected = self.CURVES[name]
        assert curve_converged(residuals, tol) is expected

    @pytest.mark.parametrize("metric", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("inclusive", [False, True])
    def test_bounded_record_fails_non_finite_metric(self, metric, inclusive):
        rec = CheckRecord.bounded("a", {}, metric, 1e-3, inclusive=inclusive, detail="why")
        assert not rec.passed and rec.detail == "why"

    def test_bounded_record_at_its_tolerance(self):
        assert not CheckRecord.bounded("a", {}, 1e-3, 1e-3).passed
        assert CheckRecord.bounded("a", {}, 1e-3, 1e-3, inclusive=True).passed
        assert CheckRecord.bounded("a", {}, np.float64(5e-4), 1e-3).passed


class TestCli:
    def test_group_validate_pass(self, capsys):
        assert main(["group-validate", "--group", "heisenberg:1"]) == 0
        assert "pass" in capsys.readouterr().out

    def test_group_validate_failure_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad", "layers": [2, 1], "brackets": []}))
        assert main(["group-validate", "--descriptor", str(path)]) == 1
        assert "stratification" in capsys.readouterr().out

    def test_group_product(self, capsys):
        assert main(["group-product", "--group", "heisenberg:1", "--x", "1,0,0", "--y", "0,1,0"]) == 0
        assert "0.5" in capsys.readouterr().out

    def test_config_error_exit_2(self, capsys):
        assert main(["hconvex-check", "--group", "heisenberg:1", "--fn", "missing"]) == 2
        assert main(["subdiff", "--group", "nosuch:1", "--fn", "one_norm", "--point", "0,0,0"]) == 2

    def test_subdiff_and_out_files(self, tmp_path, capsys):
        code = main(
            [
                "subdiff",
                "--group",
                "heisenberg:1",
                "--fn",
                "one_norm",
                "--point",
                "0,0,0",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["records"][0]["verdict"] == "pass"

    def test_mvt_command(self, capsys):
        code = main(
            ["mvt", "--group", "heisenberg:1", "--fn", "quad_vertical", "--point", "0,0,0", "--h", "1,0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "t = 0.5" in out

    # sha256 of the stdout of first-order commands, each exiting 0: the
    # printed hull rows, diameter, witness and records are pinned byte for byte
    CLI_SHA256 = {
        ("subdiff", "heisenberg:1", "one_norm", "0,0,0", None): (
            "7739941fe2cdd8bcbebf3869b21a26c0ceb7a266e7d6e9f037338b3a9bf27e6c"
        ),
        ("subdiff", "heisenberg:1", "quad_vertical", "0.2,0.3,-0.1", None): (
            "7e1835ab8eaaaff656862c1790526302088264a65ad5b7a244dfd0663747b5de"
        ),
        ("mvt", "heisenberg:1", "one_norm", "0.1,0,0", "1,0.5"): (
            "c3b9ca729065f6410ed550da2ec9cc09b4f9cb1e886f88fc1e3b0f3d16fe4b9f"
        ),
        ("mvt", "engel", "quad_vertical", "0.1,0.2,-0.1,0.05", "0.5,-0.3"): (
            "b755ccf7163fb16bd403cd55d1e19c7e4558918add41efa728a20271c2b04f09"
        ),
        ("dermax", "heisenberg:1", "one_norm", "0.1,0,0", None): (
            "9e1e2b74c7f95711362c1f413409afa7d29cdc75b41a496f512415711886a22b"
        ),
    }

    @pytest.mark.parametrize("case", CLI_SHA256, ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}")
    def test_first_order_stdout_pinned(self, capsys, case):
        op, group, fn, point, h = case
        argv = [op, "--group", group, "--fn", fn, "--point", point] + (["--h", h] if h else [])
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == self.CLI_SHA256[case]

    # sha256 of the stdout of `carnot hconvex-check` under the default plan
    # (46,080 samples each) and its exit code; the last field, -x2^2, is
    # concave along the x2 lines, fails, and names its worst segment
    HCONVEX_SHA256 = {
        ("heisenberg:1", "one_norm"): (0, "1b35e8616c4a773b6ba73143abd76088d7c9033d3075fbb70cf6e7c30b0c2088"),
        ("engel", "quadratic"): (0, "19044c51dfa86b72580109e7282ca2def7174b83bd657bb37c90bc616330e3c4"),
        ("free_step2:3", "max_affine"): (0, "202e5faa40e3b3644efa319b834550fec595884d6bc5059a944de0bfacc44209"),
        ("heisenberg:2", "quad_vertical"): (0, "19044c51dfa86b72580109e7282ca2def7174b83bd657bb37c90bc616330e3c4"),
        ("heisenberg:1", "-x2^2"): (1, "d300f9d0709cb6f9a652bb69b34681b45fc12772a3d2960f6259613ad46a4ece"),
    }

    @pytest.mark.parametrize("case", HCONVEX_SHA256, ids=lambda c: f"{c[0]}-{c[1]}")
    def test_hconvex_check_stdout_pinned(self, tmp_path, capsys, case):
        group, fn = case
        if fn == "-x2^2":
            path = tmp_path / "fn.json"
            path.write_text(json.dumps({"polynomial": [{"exponents": [0, 2, 0], "coeff": -1.0}]}))
            args = ["--fn-file", str(path)]
        else:
            args = ["--fn", fn]
        code = main(["hconvex-check", "--group", group] + args)
        assert (code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()) == self.HCONVEX_SHA256[case]

    def test_second_order_check_has_four_verdicts(self, capsys):
        code = main(
            ["second-order-check", "--group", "heisenberg:1", "--fn", "quad_vertical", "--point", "0,0,0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for key in ("equivalence", "c1_v2_stable", "c3_identity", "psd"):
            assert f"second-order/{key}" in out
        # a converged expansion fit is one whose finest residual is under the
        # fit tolerance, so a claim of that could never fail
        assert "c2_expansion" not in out

    def test_second_order_check_names_estimator_errors(self, capsys):
        # no gradient is certified at the kink of max_affine, so both
        # estimators fail, and the equivalence record says why
        code = main(["second-order-check", "--group", "heisenberg:1", "--fn", "max_affine", "--point", "0,0,0"])
        assert code == 0
        (line,) = [s for s in capsys.readouterr().out.splitlines() if "second-order/equivalence" in s]
        why = "NonSingletonSubdifferential: subdifferential diameter 2 exceeds singleton tolerance"
        assert f"(consistent: neither; expansion: {why}; gradient: {why})" in line

    def test_poly_commands(self, capsys):
        terms = json.dumps([{"exponents": [2, 0, 0], "coeff": 1.0}])
        assert main(["poly-hess", "--group", "heisenberg:1", "--poly", terms]) == 0
        assert "hessian" in capsys.readouterr().out
        assert main(["poly-alij", "--group", "heisenberg:1", "--count", "20"]) == 0

    def test_hconvex_check_command(self):
        assert main(["hconvex-check", "--group", "heisenberg:1", "--fn", "one_norm"]) == 0

    def test_dermax_command(self):
        assert main(["dermax", "--group", "heisenberg:1", "--fn", "quadratic", "--point", "0.2,0.1,0"]) == 0

    def test_second_fit_command(self, tmp_path):
        code = main(
            [
                "second-fit",
                "--group",
                "heisenberg:1",
                "--fn",
                "quad_vertical",
                "--point",
                "0,0,0",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        text = (tmp_path / "curves.csv").read_text()
        assert text.startswith("check_id,tau,residual")
        # one CSV row per ladder scale per emitted curve, plus the header
        from carnot import SamplingPlan

        assert len(text.splitlines()) == 1 + SamplingPlan().tau_count

    @pytest.mark.parametrize(
        "args, spec, metric, detail",
        [
            (["second-fit", "--fn", "one_norm", "--point", "0,0,0"], None, "nan", "exceeds singleton tolerance"),
            (
                ["dermax", "--point", "0.1,0.1,0"],
                {"polynomial": [{"exponents": [0, 2, 0], "coeff": -1.0}]},
                "inf",
                "difference quotients increase along the ladder",
            ),
        ],
        ids=["second-fit-kink", "dermax-concave"],
    )
    def test_failed_check_is_a_fail_record(self, tmp_path, capsys, args, spec, metric, detail):
        # a function that fails the check is a FAIL (exit 1), not a
        # configuration error: no gradient at a kink, a concave slice
        if spec is not None:
            (tmp_path / "f.json").write_text(json.dumps(spec))
            args = args + ["--fn-file", str(tmp_path / "f.json")]
        assert main(args + ["--group", "heisenberg:1", "--out", str(tmp_path)]) == 1
        assert "configuration error" not in capsys.readouterr().err
        (record,) = json.loads((tmp_path / "report.json").read_text())["records"]
        assert record["verdict"] == "fail"
        assert str(record["metric"]) == metric
        assert detail in record["detail"]

    def test_mvt_unbracketed_slope_is_a_fail_record(self, tmp_path, capsys, monkeypatch):
        # a step is not h-convex: no sampled subgradient brackets its secant
        # slope, which is a FAIL (exit 1) that names the slope, not a
        # configuration error
        step = lambda desc: ScalarField(desc, lambda p: (p[..., 0] >= 0.5).astype(float), label="step")
        monkeypatch.setattr(cli_mod, "_function", lambda args, desc: step(desc))
        args = ["mvt", "--group", "heisenberg:1", "--fn", "step", "--point", "0,0,0", "--h", "1,0"]
        assert main(args + ["--out", str(tmp_path)]) == 1
        assert "configuration error" not in capsys.readouterr().err
        (record,) = json.loads((tmp_path / "report.json").read_text())["records"]
        assert record["verdict"] == "fail" and str(record["metric"]) == "inf"
        assert record["detail"] == "secant slope 1 outside sampled support range [0, 0]"

    def test_report_bytes_deterministic(self, tmp_path):
        args = ["subdiff", "--group", "heisenberg:1", "--fn", "one_norm", "--point", "0,0,0", "--seed", "7"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a/report.json").read_bytes() == (tmp_path / "b/report.json").read_bytes()
        assert (tmp_path / "a/curves.csv").read_bytes() == (tmp_path / "b/curves.csv").read_bytes()

    def test_plan_file_and_tol_override(self, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"directions": 16, "tol": {"dermax": 0.5}}))
        code = main(
            [
                "dermax",
                "--group",
                "heisenberg:1",
                "--fn",
                "quadratic",
                "--point",
                "0.1,0.1,0",
                "--plan-file",
                str(plan),
                "--tol",
                "dermax=0.3",
            ]
        )
        assert code == 0

    def test_suite_records_state_the_tolerance_they_use(self, tmp_path):
        # every suite record with a Tolerances field reads it from the plan,
        # in the verdict and in the stated tolerance alike
        tols = {
            "mignot": 1e-9,
            "mvt_smooth": 1e-17,  # below the smooth witness residuals, about 2e-16 at seed 0
            "mvt_polyhedral": 5e-5,
            "dermax": 5e-3,
            "singleton_diameter": 5e-4,
            "fit": 5e-4,
            "psd": 5e-7,
        }
        args = ["suite", "--seed", "0", "--out", str(tmp_path)]
        assert main(args + [a for k, v in tols.items() for a in ("--tol", f"{k}={v}")]) == 1
        records = json.loads((tmp_path / "report.json").read_text())["records"]
        stated = {
            "mignot/": tols["mignot"],
            "/polyhedral": tols["mvt_polyhedral"],
            "dermax/": tols["dermax"],
            "hull/smooth-singleton": tols["singleton_diameter"],
            "first-order/smooth": tols["singleton_diameter"],
            "second-order/h1/extended-diff": tols["fit"],
            "second-order/h1/hessian": tols["fit"],
            "second-order/h1/v2": tols["fit"],
            "second-order/h1/claim3": tols["fit"],
            "second-order/h1/psd": -tols["psd"],
        }
        for part, tol in stated.items():
            hits = [r for r in records if part in r["id"]]
            assert hits and all(r["tolerance"] == tol for r in hits), part
        smooth = [r for r in records if r["id"].startswith("mvt/") and r["id"].endswith("/smooth")]
        assert len(smooth) == 4 and all(r["tolerance"] == tols["mvt_smooth"] for r in smooth)
        # mignot/affine reads 0.0 and still passes
        failed = {r["id"] for r in records if r["verdict"] == "fail"}
        assert failed == {r["id"] for r in smooth} | {"mignot/quadratic", "mignot/quad_vertical(alpha=1)"}

    def test_unknown_tol_key_exit_2(self, capsys):
        # an unknown key, and the former name of the membership tolerance
        for key in ("bogus", "hull_vertex"):
            assert main(["hconvex-check", "--group", "heisenberg:1", "--fn", "one_norm", "--tol", f"{key}=1"]) == 2
            assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "item, message",
        [("fit", "--tol expects KEY=VALUE, got 'fit'"), ("fit=abc", "--tol fit=abc: not a number")],
        ids=["no_value", "not_a_number"],
    )
    def test_malformed_tol_exit_2(self, capsys, item, message):
        # the errors name the flag, not the Python call that failed on it
        assert main(["hconvex-check", "--group", "heisenberg:1", "--fn", "one_norm", "--tol", item]) == 2
        assert message in capsys.readouterr().err

    def test_unknown_plan_file_key_exit_2(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"directions": 16, "bogus": 1}))
        assert main(["hconvex-check", "--group", "heisenberg:1", "--fn", "one_norm", "--plan-file", str(plan)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_plan_file_not_an_object_exit_2(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps([1, 2]))
        assert main(["hconvex-check", "--group", "heisenberg:1", "--fn", "one_norm", "--plan-file", str(plan)]) == 2
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, overrides, field",
        [
            (["dermax", "--fn", "quadratic", "--point", "0.1,0.1,0"], {"dd_steps": 1}, "dd_steps"),
            (["second-order-check", "--fn", "quadratic", "--point", "0.1,0.1,0"], {"tau_count": 0}, "tau_count"),
            (
                ["subdiff", "--fn", "quadratic", "--point", "0.1,0.1,0"],
                {"fd_step": -1e-6, "use_analytic_gradient": False},
                "fd_step",
            ),
            # with no segment or no interior lambda, even -x1^2 would pass
            (["hconvex-check", "--fn", "quadratic"], {"segment_scales": [0.0]}, "segment_scales"),
            (["hconvex-check", "--fn", "quadratic"], {"lambda_grid": 1}, "lambda_grid"),
            (["hconvex-check", "--fn", "quadratic"], {"lambda_grid": 2}, "lambda_grid"),
            (
                ["second-order-check", "--fn", "quadratic", "--point", "0.1,0.1,0"],
                {"shell_samples": 2.5},
                "shell_samples",
            ),
            (["second-order-check", "--fn", "quadratic", "--point", "0.1,0.1,0"], {"tau_count": 2.5}, "tau_count"),
            (["second-order-check", "--fn", "quadratic", "--point", "0.1,0.1,0"], {"seed": 1.5}, "seed"),
            # --seed is the run's only seed: a suite run under a plan file
            # that held another one drew from both and exited 0
            (["suite", "--seed", "0"], {"seed": 1}, "--seed"),
            (["subdiff", "--fn", "quadratic", "--point", "0.1,0.1,0"], {"use_analytic_gradient": "no"}, "use_analytic"),
            (["subdiff", "--fn", "quadratic", "--point", "0.1,0.1,0"], {"radii": [float("nan")]}, "radii"),
            (["subdiff", "--fn", "quadratic", "--point", "0.1,0.1,0"], {"tol": {"membership": True}}, "membership"),
            # a tol that is no JSON object was ignored (the run read PASS
            # under the default tolerances) or named a Python error
            (["hconvex-check", "--fn", "quadratic"], {"tol": []}, "tol must be a JSON object, got list"),
            (["hconvex-check", "--fn", "quadratic"], {"tol": 0}, "tol must be a JSON object, got int"),
            (["hconvex-check", "--fn", "quadratic"], {"tol": "x"}, "tol must be a JSON object, got str"),
        ],
        ids=[
            "dd_steps",
            "tau_count",
            "fd_step",
            "segment_scales_zero",
            "lambda_grid_1",
            "lambda_grid_2",
            "shell_samples_fraction",
            "tau_count_fraction",
            "seed_fraction",
            "suite_seed_of_plan_file",
            "use_analytic_gradient_string",
            "radii_nan",
            "tolerance_bool",
            "tol_list",
            "tol_zero",
            "tol_string",
        ],
    )
    def test_degenerate_plan_exit_2(self, tmp_path, capsys, args, overrides, field):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(overrides))
        group = [] if args[0] == "suite" else ["--group", "heisenberg:1"]
        assert main(args + group + ["--plan-file", str(plan)]) == 2
        assert field in capsys.readouterr().err

    def test_plan_file_value_of_wrong_type_exit_2(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"radii": 5}))
        assert main(["hconvex-check", "--group", "heisenberg:1", "--fn", "one_norm", "--plan-file", str(plan)]) == 2
        assert "malformed plan file" in capsys.readouterr().err

    def test_rank_deficient_directions_exit_2(self, tmp_path, capsys):
        # one direction spans one line of the 2-dimensional horizontal layer,
        # which left the concave -x2^2 untested and read PASS
        fn = tmp_path / "f.json"
        fn.write_text(json.dumps({"polynomial": [{"exponents": [0, 2, 0], "coeff": -1.0}]}))
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"directions": 1}))
        assert main(["hconvex-check", "--group", "heisenberg:1", "--fn-file", str(fn), "--plan-file", str(plan)]) == 2
        assert "do not span" in capsys.readouterr().err

    def test_rank_deficient_dermax_directions_exit_2(self, tmp_path, capsys):
        # two directions span half of heisenberg:2's horizontal layer, and
        # dermax read PASS on the directions it never tried
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"directions": 2}))
        args = ["dermax", "--group", "heisenberg:2", "--fn", "one_norm", "--point", "0,0,0,0,0"]
        assert main(args + ["--plan-file", str(plan)]) == 2
        assert "2 directions do not span the 4-dim horizontal layer" in capsys.readouterr().err

    def test_negative_tolerance_exit_2(self, capsys):
        # a negative fit tolerance would turn a smooth point into "consistent: neither"
        args = ["second-order-check", "--group", "heisenberg:1", "--fn", "quadratic", "--point", "0.1,0.1,0"]
        assert main(args + ["--tol", "fit=-1"]) == 2
        assert "fit" in capsys.readouterr().err

    def test_list_form_bracket_record_exit_2(self, tmp_path, capsys):
        path = tmp_path / "listform.json"
        path.write_text(json.dumps({"layers": [2, 1], "brackets": [[1, 2, 3, 1.0]]}))
        assert main(["group-validate", "--descriptor", str(path)]) == 2
        assert "malformed bracket record" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "layers, record, named",
        [
            ([2.9, 1], {}, "layer dimensions must be positive integers"),
            (2, {}, "layers must be a list"),
            ([2, 1], {"i": 1.7, "j": 2.2, "k": 3.9}, "bracket record 1: index 1.7 is not an integer"),
            ([2, 1], {"i": True}, "bracket record 1: index True is not an integer"),
            ([2, 1], {"k": 4}, "bracket record 1: 0-based index 3 out of range for dim 3"),
            ([2, 1], {"c": True}, "bracket record 1: constant True is not a finite real"),
            ([2, 1], {"c": float("inf")}, "bracket record 1: constant inf is not a finite real"),
            ([2, 1], {"c": float("nan")}, "bracket record 1: constant nan is not a finite real"),
            ([2, 1], {"c": 10**400}, "bracket record 1: constant 1000"),
            ([2, 1], {"c": "1"}, "bracket record 1: constant '1' is not a finite real"),
            ([2, 1], {"c": [1]}, "bracket record 1: constant [1] is not a finite real"),
            ([2, 1], {"c": None}, "bracket record 1: constant None is not a finite real"),
            ([2, 1], {"i": [1]}, "bracket record 1: index [1] is not an integer"),
            ([2, 1], {"i": {"a": 1}}, "bracket record 1: index {'a': 1} is not an integer"),
        ],
        ids=[
            "fractional-layer",
            "layers-not-a-list",
            "fractional-indices",
            "bool-index",
            "index-out-of-range",
            "bool-constant",
            "inf-constant",
            "nan-constant",
            "huge-int-constant",
            "string-constant",
            "list-constant",
            "null-constant",
            "list-index",
            "object-index",
        ],
    )
    def test_descriptor_values_of_the_wrong_type_exit_2(self, tmp_path, capsys, layers, record, named):
        # each was coerced or let through: 2.9 read as 2, 1.7 as 1, true as
        # 1.0, and an infinite constant gave a NaN product that exited 0
        path = tmp_path / "desc.json"
        path.write_text(json.dumps({"layers": layers, "brackets": [{"i": 1, "j": 2, "k": 3, "c": 1.0, **record}]}))
        for args in (["group-validate"], ["group-product", "--force", "--x", "1,0,0", "--y", "0,1,0"]):
            assert main(args + ["--descriptor", str(path)]) == 2
            assert named in capsys.readouterr().err

    def test_group_validate_without_a_group_exit_2(self, capsys):
        assert main(["group-validate"]) == 2
        err = capsys.readouterr().err
        assert "either --group or --descriptor is required" in err and "Traceback" not in err

    def test_ungraded_forced_descriptor_exit_2(self, tmp_path, capsys):
        path = tmp_path / "ungraded.json"
        brackets = [{"i": 1, "j": 2, "k": 3, "c": 1.0}, {"i": 1, "j": 3, "k": 2, "c": 1.0}]
        path.write_text(json.dumps({"name": "ungraded", "layers": [2, 1], "brackets": brackets}))
        assert main(["poly-alij", "--descriptor", str(path), "--force", "--count", "1"]) == 2
        assert "grading" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["subdiff", "--fn", "quadratic"], "--point"),
            (["mvt", "--fn", "quadratic", "--point", "0,0,0"], "--h"),
        ],
        ids=["subdiff-point", "mvt-h"],
    )
    def test_missing_vector_exit_2(self, capsys, args, flag):
        assert main(args + ["--group", "heisenberg:1"]) == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_poly_alij_nonpositive_count_exit_2(self, capsys, count):
        assert main(["poly-alij", "--group", "heisenberg:1", "--count", count]) == 2
        assert "--count" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["group-product", "--x", "nan,0,0", "--y", "0,1,0"], "--x"),
            (["subdiff", "--fn", "one_norm", "--point", "inf,0,0"], "--point"),
        ],
        ids=["group-product-nan", "subdiff-inf"],
    )
    def test_nonfinite_vector_exit_2(self, capsys, args, flag):
        assert main(args + ["--group", "heisenberg:1"]) == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "terms, spec_file",
        [
            ({"a": 1}, False),
            ([1, 2], False),
            ([{"exponents": [2.5, 0, 0], "coeff": 1.0}], False),
            ([{"exponents": [2.5, 0, 0], "coeff": 1.0}], True),
            ([{"exponents": [-1, 0, 0], "coeff": 1.0}], False),
            ([{"exponents": [2, 0, 0], "coeff": "nan"}], False),
        ],
        ids=["object", "numbers", "fractional-exponent", "fractional-exponent-spec-file", "negative-exponent", "nan-coeff"],
    )
    def test_malformed_polynomial_terms_exit_2(self, tmp_path, capsys, terms, spec_file):
        # --poly and {"polynomial": [...]} specs share one parser
        if spec_file:
            path = tmp_path / "fn.json"
            path.write_text(json.dumps({"polynomial": terms}))
            args = ["hconvex-check", "--fn-file", str(path)]
        else:
            args = ["poly-hess", "--poly", json.dumps(terms)]
        assert main(args + ["--group", "heisenberg:1"]) == 2
        assert "polynomial term" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fn, spec, named",
        [
            ("quadratic:[1]", None, "[1]"),
            ('quadratic:{"zz":1}', None, "'zz'"),
            ('quad_vertical:{"alpha":NaN}', None, "'alpha'"),
            (None, {"builtin": "quadratic", "params": [1]}, "[1]"),
            (None, {"composition": {"op": "sum", "terms": [{"builtin": "one_norm"}, 5]}}, "got 5"),
            ('affine:{"c":[1,2]}', None, "'c' of 'affine' must have shape ()"),
            ('affine:{"q":[1,2,3]}', None, "'q' of 'affine' must have shape (2,)"),
            ('quad_vertical:{"alpha":[1,2]}', None, "'alpha' of 'quad_vertical' must have shape ()"),
            ('max_affine:{"Q":[1,0],"b":0}', None, "'Q' of 'max_affine' must have shape (2, 2)"),
            # checked where they enter, not by numpy during evaluation
            (None, {"composition": {"op": "sum", "terms": []}}, "composition must be"),
            (None, {"composition": {"op": "max", "terms": []}}, "composition must be"),
            (None, {"composition": {"terms": [{"builtin": "one_norm"}]}}, "composition must be"),
        ],
        ids=[
            "params-list",
            "unknown-param",
            "nan-param",
            "spec-params-list",
            "composition-term-number",
            "vector-c",
            "long-q",
            "vector-alpha",
            "one-row-Q",
            "composition-empty-sum",
            "composition-empty-max",
            "composition-no-op",
        ],
    )
    def test_bad_function_parameters_exit_2(self, tmp_path, capsys, fn, spec, named):
        if spec is None:
            args = ["--fn", fn]
        else:
            path = tmp_path / "fn.json"
            path.write_text(json.dumps(spec))
            args = ["--fn-file", str(path)]
        assert main(["hconvex-check", "--group", "heisenberg:1"] + args) == 2
        assert named in capsys.readouterr().err

    def test_poly_hess_degree_above_two_exit_2(self, capsys):
        terms = json.dumps([{"exponents": [1, 0, 1], "coeff": 1.0}])  # x1 x3, degree 3
        assert main(["poly-hess", "--group", "heisenberg:1", "--poly", terms]) == 2
        assert "degree <= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("power", [20, 10**9])
    def test_polynomial_basis_too_large_exit_2(self, capsys, power):
        # the field matrices of a polynomial field are dense over its basis,
        # and the basis is not listed to find its size
        terms = json.dumps([{"exponents": [power, 0, 0, 0, 0], "coeff": 1.0}])
        assert main(["poly-hess", "--group", "heisenberg:2", "--poly", terms]) == 2
        assert "monomials" in capsys.readouterr().err

    def test_closed_stdout_keeps_exit_status(self):
        # the reader is gone before the first line is written, as with `| head -1`
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        cmd = [sys.executable, "-m", "carnot.cli", "subdiff", "--group", "heisenberg:1", "--fn", "quadratic"]
        try:
            proc = subprocess.run(
                cmd + ["--point", "0.1,0.1,0"], stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 0
        assert b"Traceback" not in proc.stderr and b"BrokenPipe" not in proc.stderr

    def test_fn_file(self, tmp_path):
        fn = tmp_path / "fn.json"
        fn.write_text(json.dumps({"builtin": "one_norm"}))
        assert main(["hconvex-check", "--group", "heisenberg:1", "--fn-file", str(fn)]) == 0


ALL_FLAGS = sorted({flag for flags in OPS.values() for flag in flags})


@pytest.mark.parametrize("op", OPS)
def test_each_operation_takes_only_its_flags(op, capsys):
    # a flag the operation does not read is refused, not dropped; no
    # abbreviation stands in for one either (--h is not --help)
    for flag in ALL_FLAGS:
        argv = [op, f"--{flag}"] + ([] if flag == "force" else ["1"])
        if flag in OPS[op]:
            assert _parser().parse_args(argv).operation == op
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err


EXPORTING = sorted(
    m.name for m in pkgutil.iter_modules(carnot.__path__) if hasattr(importlib.import_module(f"carnot.{m.name}"), "__all__")
)


@pytest.mark.parametrize("name", EXPORTING)
def test_all_names_resolve(name):
    # every name a module exports must exist: tools that wrap a module's
    # public functions look them up by its __all__
    module = importlib.import_module(f"carnot.{name}")
    for entry in module.__all__:
        assert hasattr(module, entry), f"carnot.{name}.__all__ names missing {entry!r}"
