import numpy as np
import pytest

from carnot import (
    check_alij,
    evaluate,
    field_matrices,
    horizontal_words,
    identity_residual,
    lambda_max,
    monomials_up_to,
    sym_hessian,
    weighted_degree,
)
from carnot.sampling import quasi_sphere, sphere_shell


def poly(desc, terms, degree=2):
    """Coefficient vector over ``monomials_up_to(desc, degree)`` of (exponents, coeff) pairs."""
    basis = monomials_up_to(desc, degree)
    c = np.zeros(len(basis))
    for alpha, v in terms:
        c[basis.index(alpha)] += v
    return c


def random_deg2(desc, rng):
    return rng.uniform(-1, 1, len(monomials_up_to(desc, 2)))


def degrees(desc):
    return np.array([weighted_degree(a, desc) for a in monomials_up_to(desc, 2)])


def quadratic_part(desc, c):
    """The monomials of homogeneous degree exactly 2 of c."""
    return np.where(degrees(desc) == 2, c, 0.0)


class TestJetCoefficients:
    def test_pure_square(self, h1):
        words = horizontal_words(h1, poly(h1, [((2, 0, 0), 1.0)]))
        assert words.tolist() == [[2.0, 0.0], [0.0, 0.0]]

    def test_vertical_coordinate(self, h1):
        words = horizontal_words(h1, poly(h1, [((0, 0, 1), 1.0)]))
        assert words.tolist() == [[0.0, 0.5], [-0.5, 0.0]]
        assert sym_hessian(h1, poly(h1, [((0, 0, 1), 1.0)]))[1].tolist() == [1.0]

    def test_zero(self, h1):
        words = horizontal_words(h1, np.zeros(7))
        assert not np.any(words)

    def test_degree_guard(self, h1):
        # x1 x3 has degree 3: a vector over the degree-3 basis is refused
        with pytest.raises(ValueError, match="degree <= 2"):
            horizontal_words(h1, poly(h1, [((1, 0, 1), 1.0)], degree=3))


class TestPolyFromJet:
    def test_jet_identity_residual(self, h1):
        # X_i X_j P(0), read as A^T, satisfies H_ij = A^i_j - sum_l a^{li}_j (v2)_l
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = random_deg2(h1, rng)
            H, v2 = sym_hessian(h1, p)
            A = horizontal_words(h1, p).T
            assert np.max(identity_residual(h1, H, v2, A)) < 1e-10


class TestSymHessian:
    def test_horizontal_square_sum(self, h1):
        H, v2 = sym_hessian(h1, poly(h1, [((2, 0, 0), 1.0), ((0, 2, 0), 1.0)]))
        assert np.allclose(H, 2 * np.eye(2)) and np.allclose(v2, 0)

    def test_vertical(self, h1):
        H, v2 = sym_hessian(h1, poly(h1, [((0, 0, 1), 1.0)]))
        assert np.allclose(H, 0) and np.allclose(v2, [1.0])

    def test_cross_term(self, h1):
        # Euclidean oracle: the Hessian of x1 x2 has offdiagonal entries 1,
        # and (1/2) <H w, w> = w1 w2 reproduces the monomial
        H, _ = sym_hessian(h1, poly(h1, [((1, 1, 0), 1.0)]))
        assert np.allclose(H, [[0, 1.0], [1.0, 0]])


class TestStructureIdentity:
    @pytest.mark.parametrize("fixture", ["h1", "h2", "fs3", "eng", "r3"])
    def test_random_polynomials(self, fixture, request):
        desc = request.getfixturevalue(fixture)
        # 30 coefficient rows at once: the draws of 30 random_deg2 calls
        C = np.random.default_rng(6).uniform(-1, 1, (30, len(monomials_up_to(desc, 2))))
        res = check_alij(desc, C)
        assert res.shape == (30, desc.m1, desc.m1)
        assert np.max(res) < 1e-10

    def test_pure_horizontal_quadratic(self, h1):
        # no second-layer term: the identity reduces to coefficient symmetry
        p = poly(h1, [((2, 0, 0), 0.3), ((1, 1, 0), -0.7)])
        assert np.max(check_alij(h1, p[None])) == 0.0


def dense_peak(desc, c, count=200_000):
    """Largest |P^(2)| over a dense random sample of the unit quasi-sphere."""
    pts = sphere_shell(desc, 1.0, count, np.random.default_rng(0))
    return float(np.max(np.abs(evaluate(desc, quadratic_part(desc, c), pts))))


class TestLambdaMax:
    def test_horizontal_unit_quadratic(self, h1):
        p = poly(h1, [((2, 0, 0), 1.0), ((0, 2, 0), 1.0)])
        assert lambda_max(h1, p) == pytest.approx(1.0, abs=1e-15)

    def test_zero(self, h1):
        assert lambda_max(h1, np.zeros(7)) == 0.0

    def test_dilation_scaling(self, h1):
        rng = np.random.default_rng(7)
        p = quadratic_part(h1, random_deg2(h1, rng))
        for r in (0.5, 2.0):
            lam1 = lambda_max(h1, p * r ** degrees(h1))  # x -> P(delta_r x)
            lam2 = lambda_max(h1, p)
            assert abs(lam1 - r**2 * lam2) < 1e-12 * max(1.0, lam1)

    @pytest.mark.parametrize("fixture", ["h1", "h2", "fs3", "eng"])
    def test_matches_dense_sample(self, fixture, request):
        # an upper bound of every sampled value, and attained up to the
        # sample's resolution (coarsest on the 4-dimensional layer of h2)
        desc = request.getfixturevalue(fixture)
        rng = np.random.default_rng(11)
        for _ in range(5):
            p = random_deg2(desc, rng)
            lam, sampled = lambda_max(desc, p), dense_peak(desc, p)
            assert sampled <= lam * (1 + 1e-12)
            assert sampled >= 0.95 * lam

    def test_engel_peak_off_the_sample(self, eng):
        # the peak sits on layers 1 and 2 only; a 10,000-point quasi-sphere
        # sample (the earlier estimate, 0.7303 after local refinement) reads
        # it more than 5% low
        p = random_deg2(eng, np.random.default_rng(4))
        lam, sampled = lambda_max(eng, p), dense_peak(eng, p)
        assert lam == pytest.approx(0.84883, abs=1e-5)
        assert 0.98 * lam <= sampled <= lam * (1 + 1e-12)
        halton_peak = np.max(np.abs(evaluate(eng, quadratic_part(eng, p), quasi_sphere(eng, 10_000))))
        assert halton_peak < 0.95 * lam


class TestLeftTranslate:
    """h -> P(x * h), read through the group product: left translation keeps
    the degree <= 2 structure that the left-invariant fields describe."""

    def test_identity_translation(self, h1):
        rng = np.random.default_rng(8)
        p = random_deg2(h1, rng)
        hs = rng.uniform(-1, 1, (20, 3))
        assert np.array_equal(evaluate(h1, p, h1.product(h1.identity(), hs)), evaluate(h1, p, hs))

    def test_heisenberg_vertical(self, h1):
        # x3(x . h) = h3 + h2/2 at x = e1
        hs = np.random.default_rng(8).uniform(-1, 1, (20, 3))
        vals = evaluate(h1, poly(h1, [((0, 0, 1), 1.0)]), h1.product(np.array([1.0, 0.0, 0.0]), hs))
        assert np.max(np.abs(vals - (hs[:, 2] + hs[:, 1] / 2))) < 1e-15

    @pytest.mark.parametrize("fixture", ["h1", "fs3", "eng"])
    def test_quadratic_part_invariance(self, fixture, request):
        # t -> P(x * t h) is quadratic with second difference <H h, h>, and
        # P(x * e_l) - P(x) = (v2)_l on the second layer, for the H and v2
        # of P at the origin
        desc = request.getfixturevalue(fixture)
        rng = np.random.default_rng(9)
        layer2 = np.eye(desc.dim)[desc.m1 : desc.m2]
        for _ in range(10):
            p = random_deg2(desc, rng)
            x = rng.uniform(-1, 1, desc.dim)
            H, v2 = sym_hessian(desc, p)
            hs = rng.uniform(-1, 1, (8, desc.m1))
            fwd = evaluate(desc, p, desc.product(x, desc.embed_horizontal(hs)))
            bwd = evaluate(desc, p, desc.product(x, desc.embed_horizontal(-hs)))
            second = fwd - 2 * evaluate(desc, p, x) + bwd
            assert np.max(np.abs(second - np.einsum("ki,ij,kj->k", hs, H, hs))) < 1e-10
            shift = evaluate(desc, p, desc.product(x, layer2)) - evaluate(desc, p, x)
            assert np.max(np.abs(shift - v2)) < 1e-10

    def test_linear_part_is_gradient(self, h1):
        # the odd part of t -> P(x * t h) is t <grad_H P(x), h>
        rng = np.random.default_rng(10)
        X, _ = field_matrices(h1)
        for _ in range(10):
            p = random_deg2(h1, rng)
            x = rng.uniform(-1, 1, 3)
            grad = np.array([evaluate(h1, X[i] @ p, x) for i in range(h1.m1)])
            hs = rng.uniform(-1, 1, (8, h1.m1))
            fwd = evaluate(h1, p, h1.product(x, h1.embed_horizontal(hs)))
            bwd = evaluate(h1, p, h1.product(x, h1.embed_horizontal(-hs)))
            assert np.max(np.abs((fwd - bwd) / 2 - hs @ grad)) < 1e-11
