from dataclasses import replace

import numpy as np
import pytest

from carnot import (
    NonSingletonSubdifferential,
    ScalarField,
    SamplingPlan,
    build_function,
    characterize_second_order,
    field_coefficients,
    fit_expansion,
    fit_extended_differential,
    gradient_with_certificate,
    hconvexity_check,
    mignot_check,
    monomials_up_to,
    psd_check,
    second_quotient,
    subdifferential_hulls,
    weighted_degree,
)
from carnot import second_order as so
from carnot.hull import centroids, diameters
from carnot.registry import euclidean, heisenberg, polyhedral_suite, smooth_suite
from carnot.sampling import quasi_sphere


def _fit_expansion(u, x, plan):
    grad, _ = gradient_with_certificate(u, x, plan)
    return fit_expansion(u, x, grad, plan)


def _fit_extended_differential(u, x, plan):
    grad, _ = gradient_with_certificate(u, x, plan)
    return fit_extended_differential(u, x, grad, plan)


@pytest.fixture(scope="module")
def quad_vert(h1):
    return build_function(h1, "quad_vertical", alpha=1.0)


class TestSecondQuotient:
    def test_affine_vanishes(self, h1, plan):
        u = build_function(h1, "affine")
        w = np.array([[0.3, -0.2, 0.4], [0.0, 0.0, 1.0]])
        grad, _ = gradient_with_certificate(u, h1.identity(), plan)
        for tau in (0.5, 0.1, 0.02):
            q = second_quotient(u, h1.identity(), tau, w, grad)
            assert np.max(np.abs(q)) < 1e-9

    def test_exactly_two_homogeneous(self, quad_vert, h1, plan):
        # u = x1^2 + x2^2 + x3 at 0: the quotient equals w1^2 + w2^2 + w3
        # for every scale (dilation exponent of the vertical slot is 2)
        rng = np.random.default_rng(0)
        W = rng.uniform(-1, 1, (20, 3))
        expect = W[:, 0] ** 2 + W[:, 1] ** 2 + W[:, 2]
        grad, _ = gradient_with_certificate(quad_vert, h1.identity(), plan)
        for tau in (0.5, 0.1, 0.03):
            q = second_quotient(quad_vert, h1.identity(), tau, W, grad)
            assert np.max(np.abs(q - expect)) < 1e-10

    def test_quotient_is_hconvex(self, quad_vert, h1, plan):
        # w -> the second difference quotient at scale 0.25, as a field
        x = h1.identity()
        grad, _ = gradient_with_certificate(quad_vert, x, plan)
        qf = ScalarField(h1, lambda ws: second_quotient(quad_vert, x, 0.25, ws, grad), label="D2[u]")
        assert hconvexity_check(qf, plan).max_violation <= 1e-10

    def test_nonsingleton_hull_rejected(self, h1, plan):
        kink = build_function(h1, "max_affine")
        with pytest.raises(NonSingletonSubdifferential):
            gradient_with_certificate(kink, h1.identity(), plan)


def _quotient_hull(u, x, tau, w, grad, plan):
    """(subdifferential hull at x delta_tau w - grad) / tau, as its (count, m1)
    generating points, from a hull of its own on the shell of radius
    ``radii[-1] * tau``."""
    desc = u.desc
    zoomed = replace(plan, radii=tuple(r * tau for r in plan.radii))
    (V,) = subdifferential_hulls(u, desc.product(x, desc.dilate(tau, w))[None], zoomed)
    return (V - grad) * (1.0 / tau)


class TestSubdiffQuotient:
    def test_affine_is_zero(self, h1, plan):
        u = build_function(h1, "affine")
        grad, _ = gradient_with_certificate(u, h1.identity(), plan)
        q = _quotient_hull(u, h1.identity(), 0.1, np.array([0.4, 0.2, 0.1]), grad, plan)
        assert diameters(q[None])[0] < 1e-9
        assert np.max(np.abs(centroids(q[None])[0])) < 1e-9
        _, excess, ok = mignot_check(u, h1.identity(), grad, np.zeros((2, 2)), plan)
        assert ok and np.max(excess) < 1e-9

    def test_smooth_matches_gradient_quotient(self, quad_vert, h1, plan):
        x = h1.identity()
        w = np.array([0.5, -0.3, 0.2])
        g0 = quad_vert.gradient(x[None])[0]
        grad, _ = gradient_with_certificate(quad_vert, x, plan)
        for tau in (0.2, 0.05):
            q = _quotient_hull(quad_vert, x, tau, w, grad, plan)
            y = h1.product(x, h1.dilate(tau, w))
            target = (quad_vert.gradient(y[None])[0] - g0) / tau
            assert diameters(q[None])[0] < 1e-3
            assert np.max(np.abs(centroids(q[None])[0] - target)) < 1e-3

    def test_scale_independence_for_quadratic(self, quad_vert, h1, plan):
        w = np.array([0.3, 0.4, -0.2])
        cents = []
        grad, _ = gradient_with_certificate(quad_vert, h1.identity(), plan)
        for tau in (0.4, 0.1, 0.025):
            cents.append(centroids(_quotient_hull(quad_vert, h1.identity(), tau, w, grad, plan)[None])[0])
        assert np.max(np.abs(cents[0] - cents[1])) < 1e-3
        assert np.max(np.abs(cents[1] - cents[2])) < 1e-3

    @pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "fd"])
    @pytest.mark.parametrize("group", ["h1", "eng"])
    def test_scale_batch_equals_per_direction_hulls(self, request, group, analytic):
        # mignot_check samples every scale and direction at once; its excess
        # ladder must equal the one read off a hull of its own at each
        # x delta_tau w, bit for bit
        desc = request.getfixturevalue(group)
        plan = SamplingPlan(seed=0, use_analytic_gradient=analytic)
        x = 0.1 * np.arange(1, desc.dim + 1) / desc.dim
        ws = np.concatenate([quasi_sphere(desc, 6, seed=31), np.eye(desc.dim)[desc.m1 : desc.m2]])
        grad = np.linspace(0.5, -0.5, desc.m1)
        A = np.random.default_rng(4).uniform(-1.0, 1.0, (desc.m1, desc.m1))

        def dist(u, tau, w):
            q = _quotient_hull(u, x, tau, w, grad, plan)
            return np.max(np.linalg.norm(q - A @ w[: desc.m1], axis=-1))

        for u in smooth_suite(desc) + polyhedral_suite(desc):
            taus, excess, _ = mignot_check(u, x, grad, A, plan)
            assert excess.tolist() == [max(dist(u, tau, w) for w in ws) for tau in taus]


class TestFitExpansion:
    def test_model_point(self, quad_vert, h1, plan):
        fit = _fit_expansion(quad_vert, h1.identity(), plan)
        assert np.allclose(fit.v2, [1.0], atol=1e-10)
        assert np.allclose(fit.hessian, 2 * np.eye(2), atol=1e-10)
        assert fit.residuals[-1] < 1e-10
        assert fit.converged

    def test_affine_all_zero(self, h1, plan):
        u = build_function(h1, "affine")
        fit = _fit_expansion(u, h1.identity(), plan)
        assert np.max(np.abs(fit.hessian)) < 1e-9
        assert np.max(np.abs(fit.v2)) < 1e-9
        assert fit.converged

    def test_smooth_side_of_kink(self, h1, plan):
        u = build_function(h1, "max_affine")  # |x1|
        fit = _fit_expansion(u, np.array([1.0, 0.0, 0.0]), plan)
        assert np.max(np.abs(fit.hessian)) < 1e-9
        assert np.max(np.abs(fit.v2)) < 1e-9

    def test_uniform_convergence_monotone_tail(self, quad_vert, h1, plan):
        # the residual curve is nonincreasing over the last scales
        fit = _fit_expansion(quad_vert, np.array([0.2, 0.1, -0.3]), plan)
        tail = fit.residuals[-3:]
        assert np.all(tail[1:] <= 1.1 * tail[:-1] + 1e-15) or np.all(tail < plan.tol.fit)

    def test_limit_quadratic_is_hconvex(self, quad_vert, h1, plan):
        from carnot.registry import _poly_field

        fit = _fit_expansion(quad_vert, np.array([0.3, -0.1, 0.2]), plan)
        quadratic = [weighted_degree(a, h1) == 2 for a in monomials_up_to(h1, 2)]
        P2 = np.where(quadratic, fit.coeffs, 0.0)
        field = _poly_field(h1, P2, 2, label="P2")
        assert hconvexity_check(field, plan).max_violation <= 1e-10


class TestExtendedDifferential:
    def test_model_point(self, quad_vert, h1, plan):
        grad, _ = gradient_with_certificate(quad_vert, h1.identity(), plan)
        fit = fit_extended_differential(quad_vert, h1.identity(), grad, plan)
        assert np.max(np.abs(fit.A - np.array([[2.0, -0.5], [0.5, 2.0]]))) < 1e-3
        assert fit.converged
        taus, excess, ok = mignot_check(quad_vert, h1.identity(), grad, fit.A, plan)
        assert ok
        assert len(taus) == len(excess) == plan.tau_count
        assert excess[-1] < 1e-2

    def test_affine_zero(self, h1, plan):
        u = build_function(h1, "affine")
        fit = _fit_extended_differential(u, h1.identity(), plan)
        assert np.max(np.abs(fit.A)) < 1e-9

    def test_euclidean_hessian_symmetric(self, plan):
        # abelian degeneration: A equals the classical Hessian, hence symmetric
        e2 = euclidean(2)
        S = np.array([[1.3, 0.4], [0.4, 0.9]])
        u = build_function(e2, "euclidean_quadratic", S=S)
        fit = _fit_extended_differential(u, e2.identity(), plan)
        assert np.max(np.abs(fit.A - S)) < 1e-4
        assert np.max(np.abs(fit.A - fit.A.T)) < 1e-6

    def test_fd_only_path(self, quad_vert, h1):
        plan_fd = SamplingPlan(seed=0, use_analytic_gradient=False)
        fit = _fit_extended_differential(quad_vert, h1.identity(), plan_fd)
        assert np.max(np.abs(fit.A - np.array([[2.0, -0.5], [0.5, 2.0]]))) < 1e-3

    def test_insufficient_stable_samples(self, h1):
        from carnot import SamplingError

        plan_fd = SamplingPlan(seed=0, use_analytic_gradient=False)
        rng = np.random.default_rng(0)

        def noisy(p):
            # smooth part plus a high-frequency ripple that defeats the
            # two-step stability filter
            return np.sum(p[..., :2] ** 2, axis=-1) + 1e-4 * np.sin(3e7 * p[..., 0])

        u = ScalarField(h1, noisy, label="ripple")
        with pytest.raises(SamplingError):
            _fit_extended_differential(u, np.array([0.5, 0.2, 0.0]), plan_fd)

    def test_rank_deficient_directions(self, plan, monkeypatch):
        from carnot import RankDeficientDesign

        # a fresh descriptor: the design is cached per descriptor, and a
        # failed design is not, so every call raises again
        desc = heisenberg(1)
        u = build_function(desc, "quad_vertical")
        W = np.array([[1.0, 0, 0], [0.5, 0, 0], [0.25, 0, 0], [2.0, 0, 0]])
        monkeypatch.setattr(so, "_direction_set", lambda desc, count: W)
        for _ in range(2):
            with pytest.raises(RankDeficientDesign):
                fit_expansion(u, desc.identity(), np.zeros(2), plan)

    def test_shells_drawn_once(self, plan, monkeypatch):
        # a host-independent work budget: a second fit on the same
        # descriptor and plan reads its shells from the per-descriptor
        # table and draws none (one draw per radius on every fit before)
        draws = []
        sphere_shell = so.sphere_shell
        monkeypatch.setattr(so, "sphere_shell", lambda *args: draws.append(args[1]) or sphere_shell(*args))
        desc = heisenberg(1)
        u = build_function(desc, "quad_vertical")
        x = np.array([0.1, 0.2, -0.1])
        first = fit_extended_differential(u, x, u.gradient(x[None])[0], plan)
        assert draws == list(plan.radii)
        again = fit_extended_differential(u, x, u.gradient(x[None])[0], plan)
        assert len(draws) == len(plan.radii)
        assert np.array_equal(first.A, again.A) and np.array_equal(first.residuals, again.residuals)


class TestCharacterization:
    def test_model_point_full_report(self, quad_vert, h1, plan):
        rep = characterize_second_order(quad_vert, h1.identity(), plan)
        assert rep.equivalence == "both converge"
        assert all(rep.claims.values())
        assert abs(rep.metrics["claim3_residual"]) < 1e-3
        assert rep.metrics["min_eigenvalue"] >= -1e-6
        # the skew part of A is minus the v2-weighted rotational form
        alij = field_coefficients(h1)
        skew = 0.5 * (rep.extended.A - rep.extended.A.T)
        induced = sum(alij[l] * rep.expansion.v2[l] for l in range(alij.shape[0]))
        assert np.max(np.abs(skew + induced)) < 1e-3

    def test_affine_passes(self, h1, plan):
        u = build_function(h1, "affine")
        rep = characterize_second_order(u, h1.identity(), plan)
        assert rep.equivalence == "both converge"
        assert all(rep.claims.values())

    def test_kink_consistent_neither(self, h1, plan):
        u = build_function(h1, "max_affine")
        rep = characterize_second_order(u, h1.identity(), plan)
        assert rep.equivalence == "consistent: neither"
        assert rep.passed()
        # the failed certification is reported by both estimators
        assert rep.expansion_error == rep.extended_error
        assert rep.expansion_error.startswith("NonSingletonSubdifferential")

    def test_gradient_certified_once(self, quad_vert, h1, plan, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return gradient_with_certificate(*args, **kwargs)

        monkeypatch.setattr(so, "gradient_with_certificate", counting)
        rep = characterize_second_order(quad_vert, h1.identity(), plan)
        assert rep.equivalence == "both converge"
        assert len(calls) == 1

    def test_empty_hull_fails_certification(self, quad_vert, h1, plan, monkeypatch):
        # an empty gradient sample has a NaN diameter, which certifies nothing
        empty = lambda u, xs, plan: np.empty((len(xs), 0, u.desc.m1))
        monkeypatch.setattr(so, "subdifferential_hulls", empty)
        with pytest.raises(NonSingletonSubdifferential):
            gradient_with_certificate(quad_vert, h1.identity(), plan)

    def test_hulls_built_once(self, quad_vert, h1, plan, monkeypatch):
        # the certificate is the only hull a characterization builds; the
        # Mignot inclusion is mignot_check's, which no verdict here reads
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return subdifferential_hulls(*args, **kwargs)

        monkeypatch.setattr(so, "subdifferential_hulls", counting)
        rep = characterize_second_order(quad_vert, h1.identity(), plan)
        assert rep.passed()
        assert len(calls) == 1

    def test_claim3_nan_jet_fails(self, quad_vert, h1, plan, monkeypatch):
        # NaN horizontal words give a NaN claim-3 residual, which must not
        # fold into a pass next to a finite one
        words = so.horizontal_words
        monkeypatch.setattr(so, "horizontal_words", lambda desc, c: np.full_like(words(desc, c), np.nan))
        rep = characterize_second_order(quad_vert, h1.identity(), plan)
        assert np.isnan(rep.metrics["claim3_jet_residual"])
        assert np.isfinite(rep.metrics["claim3_residual"])
        assert rep.claims["c3_identity"] is False
        assert not rep.passed()

    def test_engel_smooth_point(self, eng, plan):
        u = build_function(eng, "quad_vertical")
        rep = characterize_second_order(u, eng.identity(), plan)
        assert rep.equivalence == "both converge"
        assert all(rep.claims.values())

    def test_euclidean_full_characterization(self, plan):
        # degenerate second layer: v2 is empty, H equals A equals the form
        e2 = euclidean(2)
        S = np.array([[1.3, 0.4], [0.4, 0.9]])
        u = build_function(e2, "euclidean_quadratic", S=S)
        rep = characterize_second_order(u, np.array([0.2, -0.1]), plan)
        assert rep.equivalence == "both converge" and all(rep.claims.values())
        assert np.max(np.abs(rep.expansion.hessian - S)) < 1e-6
        assert rep.expansion.v2.size == 0


class TestPsdCheck:
    def test_scaled_identity(self):
        assert psd_check(2 * np.eye(3)) == pytest.approx(2.0)

    def test_indefinite(self):
        # characteristic polynomial oracle: eigenvalues 3 and -1
        assert psd_check(np.array([[1.0, 2.0], [2.0, 1.0]])) == pytest.approx(-1.0, abs=1e-12)

    def test_zero(self):
        assert psd_check(np.zeros((2, 2))) == 0.0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            psd_check(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_matches_numpy_on_random(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = rng.integers(2, 6)
            B = rng.standard_normal((n, n))
            H = 0.5 * (B + B.T)
            assert psd_check(H) == pytest.approx(float(np.linalg.eigvalsh(H)[0]), abs=1e-10)
