from dataclasses import replace

import numpy as np
import pytest

from carnot import (
    NonConvexSliceError,
    ScalarField,
    SamplingPlan,
    ConvexPolytope,
    build_function,
    dermax_checks,
    first_order_characterizations,
    first_order_residual_ladder,
    fit_expansion,
    fit_extended_differential,
    hconvexity_check,
    heisenberg,
    lambda_subdiff_membership,
    mean_value_witnesses,
    mignot_check,
    subdifferential_hulls,
)
from carnot import convexity
from carnot.convexity import _directional_derivatives, _fd_gradients_batch, _sampled_gradients, _shell_gradients
from carnot.hull import centroids, diameters, supports
from carnot.jets import lambda_max
from carnot.registry import function_from_spec, parse_polynomial, polyhedral_suite, smooth_suite
from carnot.sampling import ball, quasi_sphere, unit_directions


def _fd_gradient(u, x, step=1e-6):
    """The batched central-difference gradient at the single point x."""
    g, _ = _fd_gradients_batch(u, np.asarray(x, dtype=float)[None], step, 1e-3)
    return g[0]


def _derivatives(u, xs, hs, plan):
    """``_directional_derivatives`` at the rows of ``xs`` along every row of
    ``hs``, on the lines of ``_horizontal_lines``."""
    line, _ = convexity._horizontal_lines(u.desc, xs[:, None, :], hs)
    return _directional_derivatives(u, xs, line, plan)


def _dermax(u, xs, plan):
    """The (gaps, subadd) of the one job (u, xs)."""
    [checks] = dermax_checks([(u, xs)], plan)
    return checks


def _shells(u, x, plan):
    """The reachable-gradient sample of every shell radius of the plan around
    x, each radius k from its own draw (the plan with seed k)."""
    x = np.asarray(x, dtype=float)[None]
    return [_shell_gradients([(u, 1)], x, r, replace(plan, seed=k))[0] for k, r in enumerate(plan.radii)]


def _limit_violation(u, x, plan):
    """Closed graph of the subdifferential: the subgradients sampled at a
    point of the finest shell around x must pass the subgradient inequality
    at x itself."""
    desc = u.desc
    xk = desc.product(x, desc.dilate(plan.radii[-1], quasi_sphere(desc, 1, seed=3)[0]))
    return lambda_subdiff_membership(u, x[None], subdifferential_hulls(u, xk[None], plan), 0.0, plan)[0]


@pytest.fixture(scope="module")
def quad_vert(h1):
    return build_function(h1, "quad_vertical")


@pytest.fixture(scope="module")
def one_norm_f(h1):
    return build_function(h1, "one_norm")


@pytest.fixture(scope="module")
def affine_f(h1):
    return build_function(h1, "affine")


class TestHConvexity:
    def test_affine_exact(self, affine_f, plan):
        # affine along every horizontal line; only float re-association noise
        assert hconvexity_check(affine_f, plan).max_violation <= 5e-16

    def test_quad_plus_vertical(self, quad_vert, plan):
        # the vertical coordinate is affine along horizontal lines
        assert hconvexity_check(quad_vert, plan).max_violation <= 1e-12

    def test_concave_violation(self, h1, plan):
        neg = ScalarField(h1, lambda p: -p[..., 0] ** 2, label="-x1^2")
        rep = hconvexity_check(neg, plan)
        assert rep.max_violation >= 0.1
        assert rep.worst is not None

    def test_nan_does_not_mask_violation(self, h1, plan):
        fn = lambda p: np.where(p[..., 0] > 0.5, np.nan, -p[..., 0] ** 2)
        rep = hconvexity_check(ScalarField(h1, fn, label="-x1^2 with NaN"), plan)
        assert rep.max_violation == np.inf
        assert rep.worst is not None



class TestGradients:
    def test_affine_gradient_exact(self, h1, affine_f):
        q = affine_f.gradient(h1.identity()[None])[0]
        g = _fd_gradient(affine_f, np.array([0.3, 0.1, -0.2]))
        assert np.max(np.abs(g - q)) < 1e-9

    def test_vertical_coordinate_gradient(self, h1):
        u = ScalarField(h1, lambda p: p[..., 2], label="x3")
        x = np.array([0.4, -0.8, 0.1])
        g = _fd_gradient(u, x)
        assert np.allclose(g, [-x[1] / 2, x[0] / 2], atol=1e-9)

    def test_matches_analytic(self, quad_vert):
        rng = np.random.default_rng(0)
        for x in rng.uniform(-1, 1, (10, 3)):
            g = _fd_gradient(quad_vert, x)
            ga = quad_vert.gradient(x[None])[0]
            assert np.max(np.abs(g - ga)) / (1 + np.max(np.abs(ga))) < 1e-7


class TestReachableGradients:
    def test_smooth_spread_shrinks(self, quad_vert, plan):
        shells = _shells(quad_vert, np.array([0.3, 0.2, 0.0]), plan)
        spreads = [np.max(np.linalg.norm(g - g.mean(axis=0), axis=1)) for g in shells]
        assert spreads[-1] < 1e-3
        assert spreads[-1] < spreads[0]

    def test_euclidean_norm_covers_circle(self, h1, plan):
        def grad(p):
            h = p[..., :2]
            n = np.linalg.norm(h, axis=-1, keepdims=True)
            return np.divide(h, n, out=np.zeros_like(h), where=n > 0)

        u = ScalarField(h1, lambda p: np.linalg.norm(p[..., :2], axis=-1), label="|pi1|", grad_h=grad)
        shells = _shells(u, h1.identity(), plan)
        angles = np.sort(np.arctan2(*shells[-1].T[::-1]))
        gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))
        assert np.max(gaps) < np.pi / 2  # directions densely cover the circle

    def test_constant_function(self, h1, plan):
        u = ScalarField(h1, lambda p: np.full(p.shape[:-1], 2.0), label="const")
        assert all(np.max(np.abs(g)) < 1e-9 for g in _shells(u, h1.identity(), plan))

    def test_fd_path_matches_analytic_path(self, h1, quad_vert):
        plan_fd = SamplingPlan(seed=0, use_analytic_gradient=False)
        plan_an = SamplingPlan(seed=0)
        x = np.array([0.1, -0.2, 0.3])
        c_fd = centroids(subdifferential_hulls(quad_vert, x[None], plan_fd))[0]
        c_an = centroids(subdifferential_hulls(quad_vert, x[None], plan_an))[0]
        assert np.max(np.abs(c_fd - c_an)) < 1e-6

    @pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "fd"])
    def test_batched_shells_equal_per_centre_calls(self, h1, one_norm_f, analytic):
        # FD gradients of |x1| + |x2| are unstable where the stencil crosses
        # the kink x1 = 0, so a centre on it keeps too few of the first
        # round's draw and needs retry rounds that the other centres do not;
        # analytic gradients are all stable and finish in one round
        u = one_norm_f
        plan = SamplingPlan(seed=0, use_analytic_gradient=analytic)
        r, count = plan.radii[-1], plan.shell_samples
        xs = np.array([[0.3, 0.1, 0.0], [0.0, 0.2, -0.1], [0.2, -0.3, 0.4], [0.0, -0.1, 0.3]])
        first_round = h1.product(xs[1], ball(h1, r, count, plan.rng("subdiff-hull")))
        _, stable = _sampled_gradients(u, first_round, r, plan)
        assert (np.sum(stable) < count) == (not analytic)
        batched = _shell_gradients([(u, len(xs))], xs, r, plan)
        for x, grads in zip(xs, batched):
            (single,) = _shell_gradients([(u, 1)], x[None], r, plan)
            assert np.array_equal(grads, single)
            assert len(grads) == count

    @pytest.mark.parametrize("reject", [False, True], ids=["stable", "rows-short"])
    @pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "fd"])
    def test_one_radius_equals_radius_per_row(self, quad_vert, analytic, reject, monkeypatch):
        # one radius dilates the draw once for all rows, a radius per row
        # dilates it per row: dilation is elementwise, so the bits agree.
        # Rejecting, the first round keeps all but 7 (i % 3) draws of row i
        # and the retry rounds keep none, so rows end 0, 7 and 14 short and
        # repeat their last stable gradient
        desc = quad_vert.desc
        plan = SamplingPlan(seed=0, use_analytic_gradient=analytic)
        count, r = plan.shell_samples, plan.radii[-1]
        xs = ball(desc, 0.5, 9, np.random.default_rng(2))
        sampled_gradients = convexity._sampled_gradients

        def rejecting(u, pts, radius, plan):
            g, ok = sampled_gradients(u, pts, radius, plan)
            k = np.arange(len(pts))
            return g, ok & (len(pts) == len(xs) * count) & (k % count < count - 7 * (k // count % 3))

        if reject:
            monkeypatch.setattr(convexity, "_sampled_gradients", rejecting)
        one = _shell_gradients([(quad_vert, len(xs))], xs, r, plan)
        assert one.shape == (len(xs), count, desc.m1)
        assert np.array_equal(one, _shell_gradients([(quad_vert, len(xs))], xs, np.full(len(xs), r), plan))
        for i, grads in enumerate(one):
            have = count - 7 * (i % 3) if reject else count
            assert np.array_equal(grads[have:], np.repeat(grads[have - 1 : have], count - have, axis=0))
            assert len(np.unique(grads[:have], axis=0)) == have


class TestHullStream:
    def test_rounds_read_a_fresh_generator(self, quad_vert, monkeypatch):
        # retry round k evaluates the k-th ball draw of plan.rng("subdiff-hull"),
        # also when the cached stream holds fewer rounds than the call needs
        desc = quad_vert.desc
        plan = SamplingPlan(seed=5, shell_samples=12)
        xs = np.array([[0.1, -0.2, 0.3], [0.4, 0.0, -0.1]])
        r = 0.01
        _shell_gradients([(quad_vert, len(xs))], xs, r, plan)  # one round into the stream
        seen = []
        sampled_gradients = convexity._sampled_gradients

        def late_stable(u, pts, radius, plan):
            g, ok = sampled_gradients(u, pts, radius, plan)
            seen.append(pts.reshape(len(xs), -1, desc.dim))
            return g, ok & (len(seen) == 4)

        monkeypatch.setattr(convexity, "_sampled_gradients", late_stable)
        _shell_gradients([(quad_vert, len(xs))], xs, r, plan)
        rng = plan.rng("subdiff-hull")
        assert len(seen) == 4
        for pts in seen:
            assert np.array_equal(pts, desc.product(xs[:, None, :], ball(desc, r, plan.shell_samples, rng)))

    def test_streams_are_per_seed_count_and_descriptor(self, quad_vert):
        desc = quad_vert.desc
        x = np.array([[0.1, -0.2, 0.3]])
        plan = SamplingPlan(seed=0, shell_samples=12)
        grads = _shell_gradients([(quad_vert, 1)], x, 0.3, plan)
        assert not np.array_equal(grads, _shell_gradients([(quad_vert, 1)], x, 0.3, replace(plan, seed=1)))
        wider = _shell_gradients([(quad_vert, 1)], x, 0.3, replace(plan, shell_samples=13))
        assert not np.array_equal(grads, wider[:, :12])
        streams = {id(convexity._hull_stream(desc, seed, count)[1]) for seed, count in ((0, 12), (1, 12), (0, 13))}
        assert len(streams) == 3
        twin = build_function(heisenberg(1), "quad_vertical")
        assert convexity._hull_stream(twin.desc, 0, 12) is not convexity._hull_stream(desc, 0, 12)
        assert np.array_equal(_shell_gradients([(twin, 1)], x, 0.3, plan), grads)


class TestSubdifferentialHull:
    def test_one_norm_square(self, one_norm_f, h1, plan):
        from carnot import hausdorff_distance

        V = subdifferential_hulls(one_norm_f, h1.identity()[None], plan)
        square = ConvexPolytope.from_points([[1, 1], [1, -1], [-1, 1], [-1, -1]])
        assert hausdorff_distance(ConvexPolytope.from_points(V[0]), square) < 0.05
        assert lambda_subdiff_membership(one_norm_f, h1.identity()[None], V, 0.0, plan)[0] <= plan.tol.membership

    def test_smooth_singleton(self, quad_vert, plan):
        rng = np.random.default_rng(1)
        for x in rng.uniform(-0.8, 0.8, (5, 3)):
            assert diameters(subdifferential_hulls(quad_vert, x[None], plan))[0] < 1e-3

    def test_affine_singleton_at_q(self, affine_f, h1, plan):
        V = subdifferential_hulls(affine_f, h1.identity()[None], plan)
        q = affine_f.gradient(h1.identity()[None])[0]
        assert diameters(V)[0] < 1e-12
        assert np.max(np.abs(centroids(V)[0] - q)) < 1e-12

    def test_one_norm_cube_in_3d(self, fs3, plan):
        # the subdifferential of the horizontal 1-norm at 0 is the cube
        # [-1, 1]^3; the sampled gradients are exactly its 8 corners
        u = build_function(fs3, "one_norm")
        V = subdifferential_hulls(u, fs3.identity()[None], plan)
        assert len(np.unique(V[0], axis=0)) == 8
        assert np.allclose(np.sort(np.abs(V[0]), axis=None), 1.0)
        for e in np.eye(3):
            assert supports(V, e)[0] == pytest.approx(1.0)

    def test_support_cloud_in_4d(self, h2, plan):
        # the hull keeps the sampled gradient cloud; support queries are exact
        u = build_function(h2, "one_norm")
        V = subdifferential_hulls(u, h2.identity()[None], plan)
        for e in np.eye(4):
            assert supports(V, e)[0] == pytest.approx(1.0)
        assert diameters(V)[0] == pytest.approx(4.0, abs=1e-12)

    def test_smooth_singleton_other_groups(self, fs3, eng, plan):
        for desc in (fs3, eng):
            u = build_function(desc, "quad_vertical")
            x = 0.3 * np.arange(1, desc.dim + 1) / desc.dim
            assert diameters(subdifferential_hulls(u, x[None], plan))[0] < 1e-3


def _batch_points(desc, plan):
    """The identity, where the polyhedral fields have their kink, and five
    points of the base ball."""
    return np.concatenate([desc.identity()[None], ball(desc, plan.base_radius, 5, np.random.default_rng(5))])


_FAMILIES = {"smooth": smooth_suite, "polyhedral": polyhedral_suite}


class TestBatchedHulls:
    """A batch of hulls, on raw gradient rows, answers exactly as one-row
    calls at each of its points (criteria 5, 6 and 8)."""

    @pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "fd"])
    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    def test_hulls_equal_per_point_hulls(self, h1, family, analytic):
        plan = SamplingPlan(seed=0, use_analytic_gradient=analytic)
        xs = _batch_points(h1, plan)
        dirs = unit_directions(h1.m1, 64)
        for u in _FAMILIES[family](h1):
            for x, raw in zip(xs, subdifferential_hulls(u, xs, plan)):
                single = subdifferential_hulls(u, x[None], plan)
                assert np.array_equal(supports(raw[None], dirs), supports(single, dirs))
                assert diameters(raw[None])[0] == diameters(single)[0]
                assert np.array_equal(centroids(raw[None]), centroids(single))

    @pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "fd"])
    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    def test_reports_equal_per_point_reports(self, h1, family, analytic):
        plan = SamplingPlan(seed=0, use_analytic_gradient=analytic)
        xs = _batch_points(h1, plan)
        plan50 = replace(plan, directions=50)
        for u in _FAMILIES[family](h1):
            gaps, subadd = _dermax(u, xs, plan50)
            for x, gap, sub in zip(xs, gaps, subadd):
                assert (gap, sub) == tuple(a[0] for a in _dermax(u, x[None], plan50))
            diams, ladders, singleton, converges = first_order_characterizations(u, xs, plan)
            for i, x in enumerate(xs):
                (d1,), (l1,), (s1,), (c1,) = first_order_characterizations(u, x[None], plan)
                assert diams[i] == d1
                assert np.array_equal(ladders[i], l1)
                assert (singleton[i], converges[i]) == (s1, c1)


class TestMembership:
    def test_gradient_is_subgradient(self, quad_vert, plan):
        x = np.array([0.2, 0.3, -0.1])
        p = quad_vert.gradient(x[None])[0]
        assert lambda_subdiff_membership(quad_vert, x[None], p[None], 0.0, plan)[0] <= 1e-8

    def test_outside_point_violates(self, quad_vert, h1, plan):
        x = np.array([0.2, 0.3, -0.1])
        p = quad_vert.gradient(x[None])[0] + np.array([0.3, 0.0])
        assert lambda_subdiff_membership(quad_vert, x[None], p[None], 0.0, plan)[0] > 1e-3

    def test_rows_give_the_largest_violation(self, quad_vert, plan):
        x = np.array([0.2, 0.3, -0.1])
        g = quad_vert.gradient(x[None])[0]
        inside, outside = g, g + np.array([0.3, 0.0])
        both = lambda_subdiff_membership(quad_vert, x[None], np.stack([inside, outside])[None], 0.0, plan)[0]
        assert both == lambda_subdiff_membership(quad_vert, x[None], outside[None], 0.0, plan)[0]
        assert both > lambda_subdiff_membership(quad_vert, x[None], inside[None], 0.0, plan)[0]

    def test_affine_exact_zero(self, affine_f, h1, plan):
        q = affine_f.gradient(h1.identity()[None])[0]
        assert lambda_subdiff_membership(affine_f, h1.identity()[None], q[None], 0.0, plan)[0] == 0.0

    def test_lambda_zero_bitwise_equal(self, one_norm_f, h1, plan):
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = rng.uniform(-0.5, 0.5, 3)
            p = rng.uniform(-1, 1, 2)
            a = lambda_subdiff_membership(one_norm_f, x[None], p[None], 0.0, plan)[0]
            b = lambda_subdiff_membership(one_norm_f, x[None], p[None], 0.0, plan)[0]
            assert a == b

    def test_lambda_monotone(self, one_norm_f, h1, plan):
        p = np.array([1.3, 0.0])  # slightly outside the square
        v = [lambda_subdiff_membership(one_norm_f, h1.identity()[None], p[None], lam, plan)[0] for lam in (0.0, 0.1, 0.5, 2.0)]
        assert all(b <= a + 1e-15 for a, b in zip(v, v[1:]))

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    @pytest.mark.parametrize("k", [None, 3], ids=["one-p", "k-p"])
    def test_batch_matches_rows(self, h1, eng, fs3, plan, lam, k):
        # each row of a batch reads what its own one-row call reads, bit for
        # bit, with one subgradient (K, m1) or several (K, k, m1) per row.
        # affine and max_affine evaluate a matmul, which rounds by batch shape
        cases = [(h1, ("quad_vertical", "one_norm", "affine", "max_affine"))]
        cases += [(desc, ("affine", "max_affine")) for desc in (eng, fs3)]
        for desc, names in cases:
            rng = np.random.default_rng(6)
            xs = ball(desc, 0.5, 7, rng)
            P = rng.uniform(-1.0, 1.0, (7, desc.m1) if k is None else (7, k, desc.m1))
            for u in (build_function(desc, name) for name in names):
                batch = lambda_subdiff_membership(u, xs, P, lam, plan)
                assert batch.shape == (7,)
                for i in range(7):
                    assert batch[i] == lambda_subdiff_membership(u, xs[i : i + 1], P[i : i + 1], lam, plan)[0]

    def test_nan_row_stays_in_its_row(self, quad_vert, h1, plan):
        # NaN only beyond x1 = 2, which only row 3's own offsets reach
        u = ScalarField(h1, lambda p: np.where(p[..., 0] > 2.0, np.nan, quad_vert.value(p)), label="nan-far")
        xs = ball(h1, 0.5, 6, np.random.default_rng(7))
        xs[3] = [2.5, 0.0, 0.0]
        v = lambda_subdiff_membership(u, xs, np.zeros((6, 2)), 0.1, plan)
        assert np.isnan(v[3]) and np.isfinite(np.delete(v, 3)).all()

    def test_negative_lambda_rejected(self, one_norm_f, h1, plan):
        with pytest.raises(ValueError):
            lambda_subdiff_membership(one_norm_f, h1.identity()[None], np.zeros((1, 2)), -0.1, plan)

    def test_quadratic_shift_absorbed(self, h1, plan):
        # u = U + P with U h-convex: the hull shift by grad P lands inside
        # the lambda-subdifferential at lambda = the peak of |P^(2)|
        spec = {
            "composition": {
                "op": "sum",
                "terms": [
                    {"builtin": "one_norm"},
                    {"polynomial": [
                        {"exponents": [2, 0, 0], "coeff": -0.4},
                        {"exponents": [0, 0, 1], "coeff": 0.2},
                    ]},
                ],
            }
        }
        u = function_from_spec(h1, spec)
        P = parse_polynomial(h1, [{"exponents": [2, 0, 0], "coeff": -0.4}, {"exponents": [0, 0, 1], "coeff": 0.2}])
        lam = lambda_max(h1, P)
        x = np.array([0.3, -0.2, 0.1])
        gradP = np.array([2 * (-0.4) * x[0] + 0.2 * (-x[1] / 2), 0.2 * (x[0] / 2)])
        p = np.sign(x[:2]) + gradP  # subgradient of U plus grad P
        assert lambda_subdiff_membership(u, x[None], p[None], lam, plan)[0] <= 1e-9
        assert lambda_subdiff_membership(u, x[None], p[None], 0.0, plan)[0] > 1e-3  # the slack is needed


class TestDirectionalDerivative:
    def test_smooth_matches_gradient(self, quad_vert, plan):
        x = np.array([0.2, -0.3, 0.4])
        g = quad_vert.gradient(x[None])[0]
        for h in (np.array([1.0, 0.0]), np.array([0.6, -0.8])):
            d = _derivatives(quad_vert, x[None], h[None], plan)[0, 0]
            assert abs(d - g @ h) / (1 + abs(g @ h)) < 1e-6

    def test_abs_both_sides(self, h1, plan):
        u = build_function(h1, "max_affine")  # |x1|
        d = _derivatives(u, h1.identity()[None], np.array([[1.0, 0.0], [-1.0, 0.0]]), plan)[0]
        assert d[0] == pytest.approx(1.0)
        assert d[1] == pytest.approx(1.0)

    def test_affine_exact(self, affine_f, h1, plan):
        q = affine_f.gradient(h1.identity()[None])[0]
        h = np.array([0.3, 0.7])
        assert _derivatives(affine_f, h1.identity()[None], h[None], plan)[0, 0] == pytest.approx(q @ h, abs=1e-12)

    def test_nonconvex_flagged(self, h1, plan):
        neg = ScalarField(h1, lambda p: -p[..., 0] ** 2, label="-x1^2")
        with pytest.raises(NonConvexSliceError):
            _derivatives(neg, h1.identity()[None], np.array([[1.0, 0.0]]), plan)

    @pytest.mark.parametrize("spec", ["h1", "eng"])
    def test_batch_matches_rows(self, request, spec, plan):
        # one call for all rows gives each row exactly its one-row result
        desc = request.getfixturevalue(spec)
        xs = ball(desc, 0.6, 8, np.random.default_rng(4))
        dirs = unit_directions(desc.m1, 16)
        for u in smooth_suite(desc) + polyhedral_suite(desc):
            batched = _derivatives(u, xs, dirs, plan)
            assert batched.shape == (8, 16)
            for x, row in zip(xs, batched):
                np.testing.assert_array_equal(row, _derivatives(u, x[None], dirs, plan)[0])

    def test_slack_per_row(self, h1, plan):
        # a row's monotone slack scales with its own quotients only: a large
        # row elsewhere in the batch must not hide a small row's increase
        u = ScalarField(h1, lambda p: np.where(p[..., 2] > 0.5, 1e9 * p[..., 0] ** 2, -p[..., 0] ** 2))
        xs = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        h = np.array([[1.0, 0.0]])
        _derivatives(u, xs[:1], h, plan)
        with pytest.raises(NonConvexSliceError):
            _derivatives(u, xs, h, plan)

    def test_slack_per_block(self, h1, plan):
        # each block of lines scales its own slack: the large quotients of
        # x1 hide the increase along x2 in one block, not in two
        u = ScalarField(h1, lambda p: 1e9 * p[..., 0] ** 2 - p[..., 1] ** 2)
        x = h1.identity()[None]
        one_block, _ = convexity._horizontal_lines(h1, x[:, None, :], np.eye(2))
        assert _directional_derivatives(u, x, one_block, plan).shape == (1, 2)
        two_blocks, _ = convexity._horizontal_lines(h1, x[:, None, None, :], np.eye(2)[:, None, :])
        with pytest.raises(NonConvexSliceError):
            _directional_derivatives(u, x, two_blocks, plan)


class TestDermax:
    def test_smooth(self, quad_vert, plan):
        (gap,), (subadd,) = _dermax(quad_vert, np.array([[0.3, 0.1, -0.2]]), replace(plan, directions=50))
        assert gap < 1e-4
        assert subadd < 1e-8

    def test_one_norm_at_kink(self, one_norm_f, h1, plan):
        # support of the square is |h1| + |h2|
        (gap,), (subadd,) = _dermax(one_norm_f, h1.identity()[None], replace(plan, directions=50))
        assert gap < 2e-2
        assert subadd < 1e-8

    def test_affine_zero(self, affine_f, h1, plan):
        (gap,), _ = _dermax(affine_f, h1.identity()[None], replace(plan, directions=20))
        assert gap < 1e-10

    @pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "fd"])
    def test_jobs_equal_solo_calls(self, h1, analytic):
        # one call for the fields of both families gives each job exactly
        # its solo call
        plan = SamplingPlan(seed=0, directions=50, use_analytic_gradient=analytic)
        rng = np.random.default_rng(6)
        jobs = [(u, ball(h1, 0.75, 4, rng)) for u in smooth_suite(h1) + polyhedral_suite(h1)]
        jobs[0] = (jobs[0][0], _batch_points(h1, plan))
        batch = dermax_checks(jobs, plan)
        assert len(batch) == len(jobs)
        for (u, xs), (gaps, subadd) in zip(jobs, batch):
            solo_gaps, solo_subadd = _dermax(u, xs, plan)
            assert gaps.shape == (len(xs),)
            assert np.array_equal(gaps, solo_gaps) and np.array_equal(subadd, solo_subadd)

    def test_nonconvex_job_fails_the_batch(self, quad_vert, h1, plan):
        neg = ScalarField(h1, lambda p: -p[..., 0] ** 2, label="-x1^2", grad_h=lambda p: -2 * p[..., :2] * [1, 0])
        x = np.array([[0.1, 0.2, 0.0]])
        _dermax(quad_vert, x, plan)
        with pytest.raises(NonConvexSliceError):
            dermax_checks([(quad_vert, x), (neg, x)], plan)

    def test_jobs_on_two_groups_refused(self, quad_vert, h1):
        other = build_function(heisenberg(1), "quad_vertical")  # an equal group, but another descriptor
        x = h1.identity()[None]
        with pytest.raises(ValueError, match="one group"):
            dermax_checks([(quad_vert, x), (other, x)], SamplingPlan(seed=0))


class TestPlanTables:
    """The samples that depend only on the descriptor and the plan are
    drawn once per descriptor, in tables keyed on the plan fields they read."""

    def test_tables_are_read_only(self):
        desc = heisenberg(1)
        u = build_function(desc, "quad_vertical")
        plan = SamplingPlan(seed=0)
        x = desc.identity()
        grad = u.gradient(x[None])[0]
        hconvexity_check(u, plan)
        first_order_residual_ladder(u, x[None], grad[None], plan)
        fit = fit_extended_differential(u, x, grad, plan)
        fit_expansion(u, x, grad, plan)
        mignot_check(u, x, grad, fit.A, plan)
        tables = desc.__dict__["_per_descriptor"]
        names = {key[0] for key in tables}
        assert {"_hconvexity_segments", "_ladder_offsets", "_extdiff_shells"} <= names
        assert {"_expansion_design", "_mignot_directions"} <= names
        entries = [a for t in tables.values() for a in (t if isinstance(t, tuple) else (t,))]
        arrays = [a for a in entries if isinstance(a, np.ndarray)]
        assert len(arrays) >= 8 and not any(a.flags.writeable for a in arrays)

    @pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "fd"])
    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 1},
            {"base_count": 7},
            {"base_radius": 0.5},
            {"directions": 24},
            {"shell_samples": 40},
            {"radii": tuple(0.2 * 0.25**k for k in range(8))},
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_plans_do_not_share_tables(self, change, analytic):
        # plan A, then B, then A again on one descriptor: B equals B on a
        # fresh descriptor, and the second A call equals the first
        x = np.array([0.1, -0.2, 0.05])
        plan_a = SamplingPlan(seed=0, use_analytic_gradient=analytic)
        plan_b = replace(plan_a, **change)

        def run(desc, plan):
            u = build_function(desc, "quadratic")
            # a concave field, whose worst segment moves with the sample
            rep = hconvexity_check(ScalarField(desc, lambda p: -u.value(p)), plan)
            fit = fit_extended_differential(u, x, u.gradient(x[None])[0], plan)
            return rep.max_violation, rep.samples, rep.worst, fit.A.tolist(), fit.residuals.tolist()

        desc = heisenberg(1)
        first = run(desc, plan_a)
        assert run(desc, plan_b) == run(heisenberg(1), plan_b) != first
        assert run(desc, plan_a) == first


@pytest.mark.parametrize("spec", ["r3", "h1", "h2", "fs3", "eng", "filiform4"])
def test_horizontal_lines_are_quadratic(request, spec):
    # x (t h) = x + t b1 + t^2 b2 on every group of step <= 4; the t^2 term
    # lives in layers >= 3, so on the filiform a line without it is far off
    desc = request.getfixturevalue(spec)
    rng = np.random.default_rng(4)
    xs = rng.uniform(-1.0, 1.0, (20, desc.dim))
    hs = rng.uniform(-1.0, 1.0, (20, desc.m1))
    hfull = desc.embed_horizontal(hs)
    line, xh = convexity._horizontal_lines(desc, xs, hs)
    t = rng.uniform(0.0, 1.0, (20, 7))
    exact = desc.product(xs[:, None, :], t[..., None] * hfull[:, None, :])
    assert np.max(np.abs(convexity._on_lines(t, line) - exact)) <= 1e-14
    assert np.array_equal(xh, desc.product(xs, hfull))
    if spec == "filiform4":
        linear = xs[:, None, :] + t[..., None] * line[:, None, 1]
        assert np.max(np.abs(linear - exact)) > 1e-3
    # xs[:, None, :] against a (D, m1) direction set gives one line per
    # (row, direction), and one shared t (P,) reads every line at once
    dirs = rng.uniform(-1.0, 1.0, (6, desc.m1))
    line, xh = convexity._horizontal_lines(desc, xs[:, None, :], dirs)
    assert line.shape == (20, 6, 3, desc.dim)
    assert np.array_equal(xh, desc.product(xs[:, None, :], desc.embed_horizontal(dirs)[None]))
    t = rng.uniform(0.0, 1.0, 7)
    exact = desc.product(xs[:, None, None, :], t[:, None] * desc.embed_horizontal(dirs)[:, None, :])
    assert np.max(np.abs(convexity._on_lines(t, line) - exact)) <= 1e-14


class TestMeanValue:
    def test_affine_any_t(self, affine_f, h1, plan):
        h = np.array([0.8, -0.4])
        (w,) = mean_value_witnesses([(affine_f, h1.identity()[None], h[None])], plan)
        q = affine_f.gradient(h1.identity()[None])[0]
        assert w.residual[0] < 1e-12
        assert abs(w.p[0] @ h - q @ h) < 1e-9

    def test_quadratic_midpoint(self, quad_vert, h1, plan):
        (w,) = mean_value_witnesses([(quad_vert, h1.identity()[None], np.array([[1.0, 0.0]]))], plan)
        assert w.t[0] == pytest.approx(0.5, abs=1e-6)
        assert w.p[0, 0] == pytest.approx(1.0, abs=1e-6)
        assert w.residual[0] < 1e-10

    def test_abs_across_kink(self, h1, plan):
        u = build_function(h1, "max_affine")  # |x1|
        (w,) = mean_value_witnesses([(u, np.array([[-1.0, 0.0, 0.0]]), np.array([[2.0, 0.0]]))], plan)
        assert w.t[0] == pytest.approx(0.5, abs=1e-6)
        assert abs(w.p[0, 0]) < 1e-9
        assert w.residual[0] < 1e-12

    def test_kink_location(self, h1, plan):
        # |x1| from x1 = -0.3 along e1: psi's extremum is the kink at t = 0.3,
        # which falls between grid points, so the section search must find it
        # to the resolution of the plan's finest shell (a 3-step search,
        # 1e-3 wide, does not)
        u = build_function(h1, "max_affine")
        (w,) = mean_value_witnesses([(u, np.array([[-0.3, 0.0, 0.0]]), np.array([[1.0, 0.0]]))], plan)
        assert abs(w.t[0] - 0.3) <= plan.radii[-1] / 100
        assert w.residual[0] < 1e-12

    def test_kink_location_on_a_finer_shell(self, h1, plan):
        # a finer last shell deepens the search (13 steps at 5e-11)
        fine = replace(plan, radii=plan.radii + (5e-11,))
        u = build_function(h1, "max_affine")
        (w,) = mean_value_witnesses([(u, np.array([[-0.3, 0.0, 0.0]]), np.array([[1.0, 0.0]]))], fine)
        assert abs(w.t[0] - 0.3) <= 1e-12
        assert w.residual[0] < 1e-12

    def test_section_steps_follow_the_finest_shell(self, plan):
        # the least k with (2/17)^k <= radii[-1] / 50: 7 under the default plan,
        # and never fewer as the finest shell shrinks
        assert convexity._section_steps(plan) == 7
        assert convexity._section_steps(replace(plan, radii=plan.radii + (5e-11,))) == 13
        steps = []
        for r in 0.25 * 10.0 ** -np.arange(16):
            k = convexity._section_steps(replace(plan, radii=(0.3, r)))
            assert k >= 1 and (2 / 17) ** k <= r / 50 and (k == 1 or (2 / 17) ** (k - 1) > r / 50)
            steps.append(k)
        assert steps == sorted(steps) and steps[0] < steps[-1]

    def test_bracketing_failure_on_jump(self, h1, plan):
        # a discontinuous step is not h-convex: the secant slope cannot be
        # bracketed by sampled subgradients anywhere on the segment, which
        # fails the row and names its slope and support range
        u = ScalarField(h1, lambda p: (p[..., 0] >= 0.5).astype(float), label="step")
        (w,) = mean_value_witnesses([(u, h1.identity()[None], np.array([[1.0, 0.0]]))], plan)
        assert w.residual[0] == np.inf and np.all(np.isnan(w.p))
        assert w.detail == "secant slope 1 outside sampled support range [0, 0]"

    def test_random_pairs_small_residual(self, quad_vert, one_norm_f, plan, h1):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.uniform(-0.5, 0.5, 3)
            h = rng.uniform(-0.8, 0.8, 2)
            smooth, kink = mean_value_witnesses([(quad_vert, x[None], h[None]), (one_norm_f, x[None], h[None])], plan)
            assert smooth.residual[0] < 1e-8 and kink.residual[0] < 1e-4

    def test_nan_field_gives_failing_witness(self, h1, plan):
        # NaN where x1 > 0.5: the secant slope along e1 is NaN, along e2 finite
        u = ScalarField(
            h1, lambda p: np.where(p[..., 0] > 0.5, np.nan, np.sum(p[..., :2] ** 2, axis=-1)), label="nan-right"
        )
        (w,) = mean_value_witnesses([(u, h1.identity()[None], np.array([[1.0, 0.0]]))], plan)
        assert w.residual[0] == np.inf
        assert not w.residual[0] < plan.tol.mvt_smooth
        (w,) = mean_value_witnesses([(u, np.zeros((2, 3)), np.array([[1.0, 0.0], [0.0, 1.0]]))], plan)
        assert w.residual[0] == np.inf
        assert w.residual[1] < plan.tol.mvt_smooth
        assert w.detail == ""

    def test_nan_met_only_by_the_search_fails(self, h1, plan):
        # |x1| made NaN within 1e-6 of its kink: from x1 = -0.3 along e1 the
        # search closes in on the kink at t = 0.3, where no point of a fixed
        # grid falls, and the NaN it meets there must fail the witness
        u = build_function(h1, "max_affine")
        fn = lambda p: np.where(np.abs(p[..., 0]) < 1e-6, np.nan, u.value(p))
        nan_kink = ScalarField(h1, fn, label="nan-kink", grad_h=u.grad_h)
        (w,) = mean_value_witnesses([(nan_kink, np.array([[-0.3, 0.0, 0.0]]), np.array([[1.0, 0.0]]))], plan)
        assert np.all(np.isnan(w.p))
        assert w.residual[0] == np.inf

    def test_nan_gradient_gives_failing_witness(self, h1, plan):
        u = ScalarField(
            h1,
            lambda p: np.sum(p[..., :2] ** 2, axis=-1),
            grad_h=lambda p: np.where(p[..., :1] > 0.4, np.nan, 2.0 * p[..., :2]),
        )
        (w,) = mean_value_witnesses([(u, h1.identity()[None], np.array([[1.0, 0.0]]))], plan)
        assert w.residual[0] == np.inf

    @pytest.mark.parametrize("spec", ["h1", "h2", "fs3", "eng"])
    def test_batch_matches_rows(self, request, spec, plan):
        # every row's witness is the one it gets alone, bit for bit: the
        # fields sum coordinate columns, so a row's values do not depend on
        # the batch
        desc = request.getfixturevalue(spec)
        rng = np.random.default_rng(7)
        xs = ball(desc, 0.6, 8, rng)
        hs = unit_directions(desc.m1, 8, seed=1) * rng.uniform(0.3, 1.0, 8)[:, None]
        for u in smooth_suite(desc) + polyhedral_suite(desc):
            (w,) = mean_value_witnesses([(u, xs, hs)], plan)
            for i, (x, h) in enumerate(zip(xs, hs)):
                (w1,) = mean_value_witnesses([(u, x[None], h[None])], plan)
                assert w.t[i] == w1.t[0]
                assert np.array_equal(w.p[i], w1.p[0])
                assert w.residual[i] == w1.residual[0]


def _assert_same_witness(w, solo):
    assert np.array_equal(w.t, solo.t) and np.array_equal(w.p, solo.p)
    assert np.array_equal(w.residual, solo.residual) and np.array_equal(w.point, solo.point)
    assert w.detail == solo.detail


@pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "fd"])
@pytest.mark.parametrize("spec", ["h1", "h2", "fs3", "eng"])
def test_family_matches_fields(request, spec, analytic):
    # one call takes every field of every group, as criterion 7 does, field
    # j of a k-field family on rows j::k: the jobs share one search and one
    # line and shell product per group, yet each job of ``spec``'s families
    # gets the witnesses of its own call, bit for bit, and each row the
    # ones it gets alone
    plan = SamplingPlan(seed=0, use_analytic_gradient=analytic)
    rng = np.random.default_rng(7)
    jobs, checked = [], []
    for name in ("h1", "h2", "fs3", "eng"):
        desc = request.getfixturevalue(name)
        xs = ball(desc, 0.6, 7, rng)
        hs = unit_directions(desc.m1, 7, seed=1) * rng.uniform(0.3, 1.0, 7)[:, None]
        for family in (smooth_suite(desc), polyhedral_suite(desc)):
            k = len(family)
            checked += [name == spec] * k
            jobs += [(u, xs[j::k], hs[j::k]) for j, u in enumerate(family)]
    jobs, checked = jobs[1::2] + jobs[::2], checked[1::2] + checked[::2]  # the groups interleaved
    witnesses = mean_value_witnesses(jobs, plan)
    assert len(witnesses) == len(jobs) and sum(checked) == len(smooth_suite(request.getfixturevalue(spec))) + 2
    for (u, xs, hs), w, check in zip(jobs, witnesses, checked):
        assert w.t.shape == (len(xs),) and w.p.shape == hs.shape and w.point.shape == xs.shape
        if not check:
            continue
        (solo,) = mean_value_witnesses([(u, xs, hs)], plan)
        _assert_same_witness(w, solo)
        for i in range(len(xs)):
            (row,) = mean_value_witnesses([(u, xs[i : i + 1], hs[i : i + 1])], plan)
            assert w.t[i] == row.t[0] and np.array_equal(w.point[i], row.point[0])
            assert np.array_equal(w.p[i], row.p[0]) and w.residual[i] == row.residual[0]


def test_a_failing_job_fails_alone(h1, eng, plan):
    # gradients scaled by 1.2 cannot bracket the secant slope: that job's
    # rows read inf, its detail names its first such row, and the jobs
    # around it, on its group and on another, keep their solo witnesses
    good = smooth_suite(h1)[1]
    scaled = ScalarField(h1, good.fn, label=good.label, grad_h=lambda p: 1.2 * good.gradient(p))
    other = polyhedral_suite(eng)[0]
    rng = np.random.default_rng(3)
    xs = ball(h1, 0.6, 9, rng)
    hs = unit_directions(h1.m1, 9, seed=2) * rng.uniform(0.3, 1.0, 9)[:, None]
    xe = ball(eng, 0.6, 5, rng)
    he = unit_directions(eng.m1, 5, seed=2) * rng.uniform(0.3, 1.0, 5)[:, None]
    jobs = [(good, xs[:4], hs[:4]), (scaled, xs, hs), (other, xe, he), (good, xs[4:], hs[4:])]
    witnesses = mean_value_witnesses(jobs, plan)
    failed = witnesses[1]
    sigma = scaled.value(h1.product(xs, h1.embed_horizontal(hs))) - scaled.value(xs)
    vals = np.einsum("krm,km->kr", subdifferential_hulls(scaled, failed.point, plan), hs)
    smin, smax = np.min(vals, axis=-1), np.max(vals, axis=-1)
    outside = (sigma < smin - plan.tol.support_gap) | (sigma > smax + plan.tol.support_gap)
    assert outside.any()
    assert np.all(failed.residual[outside] == np.inf) and np.all(np.isnan(failed.p[outside]))
    assert np.all(np.isfinite(failed.residual[~outside]))
    i = int(np.argmax(outside))
    assert failed.detail == f"secant slope {sigma[i]:.4g} outside sampled support range [{smin[i]:.4g}, {smax[i]:.4g}]"
    for job, w in zip(jobs, witnesses):
        if job[0] is not scaled:
            (solo,) = mean_value_witnesses([job], plan)
            assert w.detail == "" and np.all(np.isfinite(w.residual))
            _assert_same_witness(w, solo)


def test_residual_ladder_batch_matches_rows(h1, plan):
    # one product and value call per radius for all rows gives each row the
    # ladder it gets on its own
    rng = np.random.default_rng(5)
    xs = ball(h1, 0.6, 6, rng)
    P = rng.uniform(-1.0, 1.0, (6, 2))
    fields = [
        build_function(h1, "one_norm"),
        ScalarField(h1, lambda p: np.sum(p[..., :2] ** 2, axis=-1)),
    ]
    for u in fields:
        batched = first_order_residual_ladder(u, xs, P, plan)
        assert batched.shape == (6, len(plan.radii))
        for x, p, ladder in zip(xs, P, batched):
            single = first_order_residual_ladder(u, x[None], p[None], plan)[0]
            np.testing.assert_array_equal(ladder, single)


def _bracket_row(grads, h, s, gap):
    """The per-row witness bracketing that the batched one replaced."""
    vals = grads @ h
    smin, smax = float(np.min(vals)), float(np.max(vals))
    assert smin - gap <= s <= smax + gap
    v_lo, v_hi = grads[int(np.argmin(vals))], grads[int(np.argmax(vals))]
    if s <= smin:
        return v_lo
    if s >= smax:
        return v_hi
    return v_lo + (s - smin) / (smax - smin) * (v_hi - v_lo)


@pytest.mark.parametrize("spec", ["h1", "fs3"])
def test_bracketing_matches_row_loop(request, spec, plan, monkeypatch):
    # rejected samples leave rows short: in the first round row i keeps all
    # but 7 (i % 3) of its draws, and the retry rounds keep none.  A short
    # row must repeat its last stable gradient, and the stacked bracketing
    # must pick the p of a loop over the unpadded rows
    desc = request.getfixturevalue(spec)
    count = plan.shell_samples
    rounds, rows = [], []
    sampled_gradients, shell_gradients = convexity._sampled_gradients, convexity._shell_gradients

    def rejecting(u, pts, radius, plan):
        g, ok = sampled_gradients(u, pts, radius, plan)
        k = np.arange(len(pts))
        keep = ok & (k % count < count - 7 * (k // count % 3)) & (not rounds)
        if not rounds:
            rows.extend(gi[ki] for gi, ki in zip(g.reshape(-1, count, desc.m1), keep.reshape(-1, count)))
        rounds.append(len(pts))
        return g, keep

    def checked_shells(*args):
        rounds.clear()
        rows.clear()
        grads = shell_gradients(*args)
        for g, row in zip(grads, rows):
            assert np.array_equal(g, np.concatenate([row, np.repeat(row[-1:], count - len(row), axis=0)]))
        return grads

    monkeypatch.setattr(convexity, "_sampled_gradients", rejecting)
    monkeypatch.setattr(convexity, "_shell_gradients", checked_shells)
    rng = np.random.default_rng(11)
    xs = ball(desc, 0.6, 9, rng)
    hs = unit_directions(desc.m1, 9, seed=2) * rng.uniform(0.3, 1.0, 9)[:, None]
    hfull = desc.embed_horizontal(hs)
    for u in smooth_suite(desc) + polyhedral_suite(desc):
        (w,) = mean_value_witnesses([(u, xs, hs)], plan)
        ps, residuals = w.p, w.residual
        sigma = u.value(desc.product(xs, hfull)) - u.value(xs)
        assert len(rounds) == 4 and {len(g) for g in rows} == {count, count - 7, count - 14}
        for g, h, s, pw, rw in zip(rows, hs, sigma, ps, residuals):
            p = _bracket_row(g, h, s, plan.tol.support_gap)
            assert np.max(np.abs(pw - p)) <= 1e-15
            assert abs(rw - abs(s - p @ h)) <= 1e-15


class TestClosedGraph:
    def test_smooth(self, quad_vert, plan, h1):
        for x in ball(h1, 0.5, 5, plan.rng("t")):
            assert _limit_violation(quad_vert, x, plan) <= 1e-3

    def test_kink_limit_from_positive_side(self, h1, plan):
        u = build_function(h1, "max_affine")  # |x1|
        # gradients at x1 > 0 are e1; the limit e1 must be a subgradient at 0
        assert lambda_subdiff_membership(u, h1.identity()[None], np.array([[1.0, 0.0]]), 0.0, plan)[0] <= 1e-12
        assert _limit_violation(u, h1.identity(), plan) <= 1e-3

    def test_affine(self, affine_f, plan, h1):
        assert _limit_violation(affine_f, h1.identity(), plan) <= 1e-12


class TestFirstOrderCharacterization:
    def test_smooth_points(self, quad_vert, plan):
        rng = np.random.default_rng(4)
        for x in rng.uniform(-0.7, 0.7, (5, 3)):
            _, _, (singleton,), (converges,) = first_order_characterizations(quad_vert, x[None], plan)
            assert singleton and converges and singleton == converges

    def test_kink_point(self, h1, plan):
        u = build_function(h1, "max_affine")
        (diam,), (ladder,), (singleton,), (converges,) = first_order_characterizations(u, h1.identity()[None], plan)
        assert diam >= 1.9
        assert not converges
        assert ladder[-1] > 0.2  # the ladder stalls
        assert singleton == converges

    def test_subjet_equivalence_at_kink(self, one_norm_f, h1, plan):
        # a vertex passing the o(|h|)-relaxed inequality also passes the
        # strict one; a point outside fails the relaxed ladder
        (V,) = subdifferential_hulls(one_norm_f, h1.identity()[None], plan)
        for v in V:
            ladder = first_order_residual_ladder(one_norm_f, h1.identity()[None], v[None], plan)[0]
            # relaxed: sup (u(x) + <p,h> - u(xh)) / |h| bounded by the ladder
            assert lambda_subdiff_membership(one_norm_f, h1.identity()[None], v[None], 0.0, plan)[0] <= 1e-10
        outside = np.array([1.5, 0.0])
        assert lambda_subdiff_membership(one_norm_f, h1.identity()[None], outside[None], 0.0, plan)[0] > 1e-3


class TestScaleDiagnostics:
    def test_hull_monotonicity(self, one_norm_f, quad_vert, plan, h1):
        # a finer shell's hull sits inside the coarser one fattened by the
        # coarser hull's diameter (the observed gradient oscillation)
        dirs = unit_directions(h1.m1, 256)
        for u in (one_norm_f, quad_vert):
            hulls = np.stack(_shells(u, h1.identity(), plan))
            support, diam = supports(hulls, dirs), diameters(hulls)
            for k in range(len(hulls) - 1):
                assert np.max(support[k + 1] - support[k]) <= diam[k] + 2e-9

    def test_equiboundedness(self, one_norm_f, plan, h1):
        # all hull vertices over a compact sample are bounded by the
        # horizontal Lipschitz constant of |x1| + |x2|, which is sqrt(2)
        L = np.sqrt(2.0)
        rng = np.random.default_rng(5)
        for x in ball(h1, 0.3, 5, rng):
            (V,) = subdifferential_hulls(one_norm_f, x[None], plan)
            assert np.max(np.linalg.norm(V, axis=1)) <= L + 1e-12

    def test_growth_ratio_stable(self, quad_vert, plan, h1):
        # sup |p| over B(x, r) against the r-normalized mean of |u| over the
        # enlarged ball: finite and stable in r (the constant itself is not
        # asserted)
        rng = np.random.default_rng(6)
        x = np.array([0.2, 0.1, 0.05])
        ratios = []
        for r in (0.02, 0.04, 0.08):
            sup_p = 0.0
            for y in ball(h1, r, 4, rng):
                (V,) = subdifferential_hulls(quad_vert, h1.product(x, y)[None], plan)
                sup_p = max(sup_p, float(np.max(np.linalg.norm(V, axis=1))))
            pts = h1.product(x, ball(h1, 15 * r, 200, rng))
            mean_u = float(np.mean(np.abs(quad_vert.value(pts))))
            ratios.append(sup_p / (mean_u / r))
        ratios = np.asarray(ratios)
        assert np.all(np.isfinite(ratios))
        assert np.max(ratios) / np.min(ratios) < 10.0
