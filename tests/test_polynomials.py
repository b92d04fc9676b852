import numpy as np
import pytest

from carnot import DescriptorError, evaluate, field_matrices, monomials_up_to, parse_polynomial, weighted_degree


def vector(desc, terms, degree=2):
    """Coefficient vector over ``monomials_up_to(desc, degree)`` of (exponents, coeff) pairs."""
    basis = monomials_up_to(desc, degree)
    c = np.zeros(len(basis))
    for alpha, v in terms:
        c[basis.index(alpha)] += v
    return c


def homogeneous_part(desc, c, j):
    """The monomials of homogeneous degree exactly j of the coefficient vector c."""
    basis = monomials_up_to(desc, 2)
    return np.where([weighted_degree(a, desc) == j for a in basis], c, 0.0)


class TestDegrees:
    def test_coordinate_weights(self, h1):
        assert weighted_degree((0, 0, 1), h1) == 2  # x3 weighs 2
        assert weighted_degree((1, 1, 0), h1) == 2  # x1 x2
        assert weighted_degree((1, 0, 1), h1) == 3  # x1 x3

    def test_constant_and_zero(self, h1):
        # the constant monomial comes first and has degree 0
        assert monomials_up_to(h1, 2)[0] == (0, 0, 0) and weighted_degree((0, 0, 0), h1) == 0
        pts = np.random.default_rng(0).uniform(-1, 1, (10, 3))
        assert np.array_equal(evaluate(h1, vector(h1, [((0, 0, 0), 2.5)]), pts), np.full(10, 2.5))
        assert np.array_equal(evaluate(h1, np.zeros(7), pts), np.zeros(10))

    def test_weighted_degree(self, eng):
        # engel weights (1, 1, 2, 3)
        assert weighted_degree((1, 0, 1, 1), eng) == 6

    def test_homogeneous_parts(self, h1):
        c = vector(h1, [((0, 0, 0), 1.0), ((1, 0, 0), 1.0), ((0, 0, 1), 1.0)])
        assert np.array_equal(homogeneous_part(h1, c, 2), vector(h1, [((0, 0, 1), 1.0)]))
        assert np.array_equal(homogeneous_part(h1, c, 0), vector(h1, [((0, 0, 0), 1.0)]))
        assert np.array_equal(sum(homogeneous_part(h1, c, j) for j in range(3)), c)

    def test_homogeneous_scaling(self, eng):
        rng = np.random.default_rng(1)
        c = rng.uniform(-1, 1, len(monomials_up_to(eng, 2)))
        pts = rng.uniform(-1, 1, (50, eng.dim))
        for j in (0, 1, 2):
            cj = homogeneous_part(eng, c, j)
            for r in (0.5, 2.0):
                lhs = evaluate(eng, cj, eng.dilate(r, pts))
                assert np.max(np.abs(lhs - r**j * evaluate(eng, cj, pts))) < 1e-12


class TestArithmetic:
    def test_ring_ops_match_pointwise(self, h1):
        # sums and multiples of coefficient vectors evaluate pointwise
        rng = np.random.default_rng(2)
        a, b = rng.uniform(-1, 1, (2, len(monomials_up_to(h1, 2))))
        pts = rng.uniform(-1, 1, (40, 3))
        assert np.allclose(evaluate(h1, a + b, pts), evaluate(h1, a, pts) + evaluate(h1, b, pts))
        assert np.allclose(evaluate(h1, a - b, pts), evaluate(h1, a, pts) - evaluate(h1, b, pts))
        assert np.allclose(evaluate(h1, 3.0 * a, pts), 3.0 * evaluate(h1, a, pts))

    def test_partial_derivative(self, h1):
        # d/dx1 (x1^2 + 2 x1 x2) = 2 x1 + 2 x2, and d/dx3 of it vanishes
        _, D = field_matrices(h1)
        c = vector(h1, [((2, 0, 0), 1.0), ((1, 1, 0), 2.0)])
        assert np.array_equal(D[0] @ c, vector(h1, [((1, 0, 0), 2.0), ((0, 1, 0), 2.0)]))
        assert not np.any(D[2] @ c)

    def test_compose_dilation(self, h1):
        # x -> P(delta_r x) scales the coefficient of x^alpha by r^deg(alpha)
        c = vector(h1, [((1, 0, 0), 1.0), ((0, 0, 1), 1.0)])
        degrees = np.array([weighted_degree(a, h1) for a in monomials_up_to(h1, 2)])
        q = c * 2.0**degrees
        assert np.array_equal(q, vector(h1, [((1, 0, 0), 2.0), ((0, 0, 1), 4.0)]))
        pts = np.random.default_rng(3).uniform(-1, 1, (20, 3))
        assert np.array_equal(evaluate(h1, q, pts), evaluate(h1, c, h1.dilate(2.0, pts)))

    def test_zero_coefficients_pruned(self, h1):
        # only the monomials with a nonzero coefficient are evaluated: an
        # infinite x3 never meets the zero coefficient of x3
        c = vector(h1, [((2, 0, 0), 1.0)])
        assert evaluate(h1, c, np.array([0.5, 0.0, np.inf])) == 0.25

    def test_descriptor_mismatch(self, h1, r3):
        # a polynomial of one group is not evaluated at points of another
        with pytest.raises(DescriptorError, match="trailing length"):
            evaluate(h1, vector(h1, [((1, 0, 0), 1.0)]), np.zeros((2, 4)))
        with pytest.raises(ValueError, match="basis"):
            evaluate(r3, vector(h1, [((1, 0, 0), 1.0)]), np.zeros(3))  # 7 monomials: no basis of R^3


class TestEvaluate:
    def test_matches_monomials(self, h1):
        c = vector(h1, [((0, 0, 0), 0.5), ((2, 0, 0), 1.0), ((1, 1, 0), -2.0), ((0, 0, 1), 3.0)])
        x = np.random.default_rng(2).uniform(-1, 1, (40, 3))
        want = 0.5 + x[:, 0] ** 2 - 2 * x[:, 0] * x[:, 1] + 3 * x[:, 2]
        assert np.max(np.abs(evaluate(h1, c, x) - want)) < 1e-15

    def test_higher_degree_and_batch_shape(self, eng):
        terms = [{"exponents": [1, 0, 0, 1], "coeff": 2.0}, {"exponents": [0, 0, 2, 0], "coeff": -1.0}]
        c = parse_polynomial(eng, terms)
        assert len(c) == len(monomials_up_to(eng, 4))
        x = np.random.default_rng(3).uniform(-1, 1, (4, 5, eng.dim))
        want = 2 * x[..., 0] * x[..., 3] - x[..., 2] ** 2
        assert np.max(np.abs(evaluate(eng, c, x) - want)) < 1e-15


def reference_evaluate(desc, c, pts):
    """The sum of c_k x^alpha_k from the last basis monomial to the first,
    started from zero, each term c_k times its powers ``x_i ** a`` in
    coordinate order."""
    basis = next(b for d in range(len(c)) if len(b := monomials_up_to(desc, d)) >= len(c))
    out = np.zeros(pts.shape[:-1])
    for k in range(len(c) - 1, -1, -1):
        if c[k]:
            term = c[k]
            for i, a in enumerate(basis[k]):
                if a:
                    term = term * pts[..., i] ** a
            out = out + term
    return out


class TestEvaluateBits:
    @pytest.mark.parametrize("spec", ["euclidean:2", "heisenberg:1", "heisenberg:2", "free_step2:3", "engel"])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_matches_the_reference_sum(self, spec, degree):
        # starting from the first term, and skipping a unit coefficient and
        # ** 1, moves no bit but the sign of a zero
        from carnot import build_group

        desc = build_group(spec)
        rng = np.random.default_rng(degree)
        n = len(monomials_up_to(desc, degree))
        choices = np.array([0.0, 0.0, 1.0, -1.0, 2.5, -0.3])
        pts = rng.uniform(-1.5, 1.5, (16, desc.dim))
        pts[0] = 0.0
        for _ in range(6):
            c = np.where(rng.random(n) < 0.3, rng.normal(size=n), rng.choice(choices, n))
            c[0] = rng.choice([0.0, 1.0, -2.0])  # the constant
            assert np.array_equal(evaluate(desc, c, pts) + 0.0, reference_evaluate(desc, c, pts) + 0.0)
        for k in range(n):  # each lone monomial, with a unit coefficient
            c = np.eye(n)[k]
            assert np.array_equal(evaluate(desc, c, pts) + 0.0, reference_evaluate(desc, c, pts) + 0.0)

    @pytest.mark.parametrize(
        "terms",
        [[((1, 0, 0), 1.0)], [((0, 0, 1), 1.0)], [((0, 0, 0), 1.0)], [], [((1, 0, 0), 1.0), ((0, 1, 0), 1.0)]],
        ids=["x1", "x3", "constant", "zero", "x1+x2"],
    )
    def test_result_is_a_new_array(self, h1, terms):
        # the lone monomial x1 is the column pts[..., 0] itself: writing into
        # the result must not reach the points
        pts = np.random.default_rng(4).uniform(-1, 1, (5, 3))
        before = pts.copy()
        out = evaluate(h1, vector(h1, terms), pts)
        out[...] = 7.0
        assert np.array_equal(pts, before)


class TestMonomialBasis:
    def test_h1_degree2_basis(self, h1):
        basis = monomials_up_to(h1, 2)
        # 1, x1, x2, x3, x1^2, x1 x2, x2^2
        assert len(basis) == 7
        assert (0, 0, 1) in basis and (2, 0, 0) in basis and (1, 0, 1) not in basis

    def test_counts_match_jet_dimension(self, h2, fs3, eng, r3):
        for desc in (h2, fs3, eng, r3):
            m1 = desc.m1
            expect = 1 + m1 + (desc.m2 - desc.m1) + m1 * (m1 + 1) // 2
            assert len(monomials_up_to(desc, 2)) == expect
