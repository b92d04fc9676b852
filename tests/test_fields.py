import numpy as np
import pytest

from carnot import (
    DescriptorError,
    GradedPolynomial,
    GroupDescriptor,
    apply_field,
    coefficient_vector,
    field_coefficients,
    field_matrices,
    monomials_up_to,
    validate_descriptor,
)


def seeded_filiform4(seed=0):
    """The step-4 filiform of the benchmark workloads: [e1,e2]=c1 e3,
    [e1,e3]=c2 e4, [e1,e4]=c3 e5 with seeded constants in [0.5, 1.5)."""
    c = np.random.default_rng((seed, 4)).uniform(0.5, 1.5, 3)
    br = {}
    for (i, j, k), ck in zip(((0, 1, 2), (0, 2, 3), (0, 3, 4)), c):
        br[(i, j, k)] = float(ck)
        br[(j, i, k)] = -float(ck)
    return GroupDescriptor("filiform4", (2, 1, 1, 1), br)


def dense_field_table(desc):
    """{(j, l): a^l_j} from the dense structure tensor."""
    C = desc.structure
    eye = np.eye(desc.dim, dtype=np.int64)
    table = {}
    for j in range(desc.dim):
        lin = 0.5 * C[:, j, :]
        quad = np.einsum("mk,ikl->mil", C[:, j, :], C) / 12.0
        for l in range(desc.dim):
            terms = [(eye[i], c) for i, c in enumerate(lin[:, l]) if c]
            terms += [(eye[m] + eye[i], c) for (m, i), c in np.ndenumerate(quad[:, :, l]) if c]
            a = GradedPolynomial.from_terms(desc, terms)
            if a.coeffs:
                table[(j, l)] = a.coeffs
    return table


def dense_jacobi_violations(desc, tol=1e-10):
    """{(i, j, k, l): |Jacobi sum|} with i < j < k where it exceeds ``tol``."""
    C = desc.structure
    T = np.einsum("jkm,iml->ijkl", C, C)
    J = np.abs(T + T.transpose(1, 2, 0, 3) + T.transpose(2, 0, 1, 3))
    return {(int(i), int(j), int(k), int(l)): J[i, j, k, l] for i, j, k, l in zip(*np.nonzero(J > tol)) if i < j < k}


# a bracket table that breaks Jacobi at (0, 1, 2): only e1 acts on V2
BAD_JACOBI = {
    (0, 1, 3): 1.0, (1, 0, 3): -1.0,
    (0, 2, 4): 1.0, (2, 0, 4): -1.0,
    (1, 2, 5): 1.0, (2, 1, 5): -1.0,
    (0, 5, 6): 1.0, (5, 0, 6): -1.0,
}


@pytest.fixture(params=["h1", "h2", "fs3", "eng", "filiform4-seeded"])
def desc(request):
    if request.param == "filiform4-seeded":
        return seeded_filiform4()
    return request.getfixturevalue(request.param)


class TestSparseStructureConstants:
    """Field coefficients and Jacobi sums from the nonzero brackets only
    match the dense-tensor computation."""

    def test_field_table_matches_dense(self, desc):
        fc = field_coefficients(desc)
        want = dense_field_table(desc)
        got = {(j, l): fc.poly(j, l).coeffs for j in range(desc.dim) for l in fc.raised_indices(j)}
        assert want and got.keys() == want.keys()
        for key, coeffs in want.items():
            assert got[key].keys() == coeffs.keys()
            assert max(abs(got[key][a] - c) for a, c in coeffs.items()) <= 1e-15

    def test_jacobi_matches_dense(self, desc):
        got = {v.indices for v in validate_descriptor(desc).violations if v.kind == "jacobi"}
        assert got == set(dense_jacobi_violations(desc)) == set()

    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    def test_jacobi_violations_match_dense(self, seed):
        # the corrupted table above, or random antisymmetric brackets on R^5
        # (ungraded, so most triples break Jacobi)
        if seed is None:
            desc = GroupDescriptor("bad-jacobi", (3, 3, 1), BAD_JACOBI)
        else:
            rng = np.random.default_rng(seed)
            br = {}
            for i, j in [(i, j) for i in range(5) for j in range(i + 1, 5)]:
                k, c = int(rng.integers(5)), float(rng.uniform(-1, 1))
                br[(i, j, k)], br[(j, i, k)] = c, -c
            desc = GroupDescriptor("random", (2, 3), br)
        got = {v.indices: v.magnitude for v in validate_descriptor(desc).violations if v.kind == "jacobi"}
        want = dense_jacobi_violations(desc)
        assert want and got.keys() == want.keys()
        assert all(abs(got[key] - m) <= 1e-15 for key, m in want.items())


class TestFieldCoefficients:
    def test_heisenberg_rotational_constants(self, h1):
        fc = field_coefficients(h1)
        # X1 = d1 - (x2/2) d3, X2 = d2 + (x1/2) d3
        assert fc.poly(0, 2).coeffs == {(0, 1, 0): -0.5}
        assert fc.poly(1, 2).coeffs == {(1, 0, 0): 0.5}
        assert fc.alij[0, 0, 1] == 0.5  # a^{31}_2
        assert fc.alij[0, 1, 0] == -0.5  # a^{32}_1

    def test_abelian_all_zero(self, r3):
        fc = field_coefficients(r3)
        assert fc.raised_indices(0) == []
        assert fc.alij.size == 0 or np.all(fc.alij == 0)

    @pytest.mark.parametrize("fixture", ["h1", "h2", "fs3", "eng"])
    def test_antisymmetry(self, fixture, request):
        fc = field_coefficients(request.getfixturevalue(fixture))
        assert fc.antisymmetry_residual() <= 1e-14

    def test_engel_third_layer_homogeneity(self, eng):
        fc = field_coefficients(eng)
        a = fc.poly(0, 3)  # d_l - d_j = 2
        assert a.hdeg == 2
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1, 1, (100, eng.dim))
        for r in (0.5, 2.0, 3.0):
            lhs = a.evaluate(eng.dilate(r, pts))
            assert np.max(np.abs(lhs - r**2 * a.evaluate(pts))) < 1e-12

    @pytest.mark.parametrize("fixture", ["fs3", "eng", "filiform4"])
    def test_coefficients_match_t_derivative(self, fixture, request):
        # a^l_j(x) is the derivative of t -> (x * t e_j)_l at t = 0; at step 4
        # (filiform4) this also pins the absence of a cubic term
        desc = request.getfixturevalue(fixture)
        fc = field_coefficients(desc)
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, desc.dim)
        eps = 1e-6
        for j in range(desc.dim):
            plus = desc.product(x, eps * desc.basis_vector(j))
            minus = desc.product(x, -eps * desc.basis_vector(j))
            fd = (plus - minus) / (2 * eps)
            for l in range(desc.dim):
                if desc.dilation_exponents[l] <= desc.dilation_exponents[j]:
                    continue
                assert abs(fd[l] - fc.poly(j, l).evaluate(x)) < 1e-8

    def test_broken_grading_rejected(self):
        # [e1, e3] = e2 maps weights 1 + 2 to weight 1
        desc = GroupDescriptor("graded", (2, 1), {(0, 1, 2): 1.0, (1, 0, 2): -1.0, (0, 2, 1): 1.0, (2, 0, 1): -1.0})
        with pytest.raises(DescriptorError, match="grading"):
            field_coefficients(desc)


class TestApplyField:
    def test_heisenberg_vertical(self, h1):
        x3 = GradedPolynomial.coordinate(h1, 2)
        fc = field_coefficients(h1)
        assert apply_field(fc, 0, x3).coeffs == {(0, 1, 0): -0.5}
        assert apply_field(fc, 1, x3).coeffs == {(1, 0, 0): 0.5}

    def test_horizontal_coordinate(self, h1):
        fc = field_coefficients(h1)
        x1 = GradedPolynomial.coordinate(h1, 0)
        assert apply_field(fc, 0, x1).coeffs == {(0, 0, 0): 1.0}

    def test_abelian_equals_partial(self, r3):
        fc = field_coefficients(r3)
        rng = np.random.default_rng(2)
        p = GradedPolynomial.from_terms(r3, [((2, 1, 0), 0.7), ((0, 0, 3), -0.2)])
        for j in range(3):
            assert apply_field(fc, j, p).coeff_distance(p.partial(j)) == 0.0

    def test_degree_drops_by_field_weight(self, eng):
        fc = field_coefficients(eng)
        p = GradedPolynomial.coordinate(eng, 3)  # weight 3
        assert apply_field(fc, 3, p).hdeg == 0
        q = apply_field(fc, 0, p)
        assert q.hdeg <= 2

    def test_matches_finite_difference_along_flows(self, eng):
        # X_j P (x) equals d/dt P(x * t e_j) at t = 0
        from carnot import monomials_up_to

        fc = field_coefficients(eng)
        rng = np.random.default_rng(3)
        basis = monomials_up_to(eng, 2)
        P = GradedPolynomial.from_terms(eng, zip(basis, rng.uniform(-1, 1, len(basis))))
        pts = rng.uniform(-1, 1, (50, eng.dim))
        eps = 1e-6
        for j in range(eng.dim):
            ej = eng.basis_vector(j)
            fd = (P.evaluate(eng.product(pts, eps * ej)) - P.evaluate(eng.product(pts, -eps * ej))) / (2 * eps)
            exact = apply_field(fc, j, P).evaluate(pts)
            denom = 1.0 + np.abs(exact)
            assert np.max(np.abs(fd - exact) / denom) < 1e-7


class TestFieldMatrices:
    """X_j and d/dx_j as matrices on the coefficient vectors of degree <= 2."""

    def test_matrices_match_polynomial_arithmetic(self, desc):
        fc = field_coefficients(desc)
        X, D = field_matrices(desc)
        basis = monomials_up_to(desc, 2)
        assert X.shape == D.shape == (desc.m2, len(basis), len(basis))
        rng = np.random.default_rng(12)
        for _ in range(5):
            P = GradedPolynomial.from_terms(desc, zip(basis, rng.uniform(-1, 1, len(basis))))
            c = coefficient_vector(P)
            for j in range(desc.m2):
                assert np.array_equal(X[j] @ c, coefficient_vector(apply_field(fc, j, P)))
                assert np.array_equal(D[j] @ c, coefficient_vector(P.partial(j)))

    def test_abelian_fields_are_partials(self, r3):
        X, D = field_matrices(r3)
        assert X.shape == (3, 10, 10) and np.array_equal(X, D)

    def test_cached_per_descriptor(self, h1):
        assert field_matrices(h1) is field_matrices(h1)

    def test_coefficient_vector_basis_order(self, h1):
        # entry k is the coefficient of monomials_up_to(desc, 2)[k]; the constant comes first
        c = coefficient_vector(GradedPolynomial.from_terms(h1, [((0, 0, 0), 2.0), ((1, 1, 0), -1.0)]))
        assert c[0] == 2.0 and c[monomials_up_to(h1, 2).index((1, 1, 0))] == -1.0
        assert np.count_nonzero(c) == 2
