import numpy as np
import pytest

from carnot import (
    DescriptorError,
    GroupDescriptor,
    evaluate,
    field_coefficients,
    field_matrices,
    function_from_spec,
    monomials_up_to,
    parse_polynomial,
    validate_descriptor,
    weighted_degree,
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


def dense_field_matrices(desc, degree):
    """``field_matrices(desc, degree)`` from the dense structure tensor, by
    applying X_j = d_j + sum_l a^l_j d_l to each basis monomial with
    a^l_j = sum_i C[i, j, l] x_i / 2 + sum_{m, i} [e_i, [e_m, e_j]]_l x_m x_i / 12."""
    C = desc.structure
    basis = monomials_up_to(desc, degree)
    eye = np.eye(desc.dim, dtype=np.int64)
    count = sum(1 for d in desc.dilation_exponents if d <= degree)
    X = np.zeros((count, len(basis), len(basis)))
    D = np.zeros_like(X)
    for j in range(count):
        lin = 0.5 * C[:, j, :]  # [i, l]
        quad = np.einsum("mk,ikl->mil", C[:, j, :], C) / 12.0  # [m, i, l]
        for k, alpha in enumerate(basis):
            a = np.array(alpha)
            if a[j]:
                D[j, basis.index(tuple(a - eye[j])), k] = a[j]
            for l in np.flatnonzero(a):
                for i in np.flatnonzero(lin[:, l]):
                    X[j, basis.index(tuple(a - eye[l] + eye[i])), k] += a[l] * lin[i, l]
                for m, i in zip(*np.nonzero(quad[:, :, l])):
                    X[j, basis.index(tuple(a - eye[l] + eye[m] + eye[i])), k] += a[l] * quad[m, i, l]
    return X + D, D


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


def unit(desc, alpha, degree=2):
    """Coefficient vector of the monomial x^alpha over ``monomials_up_to(desc, degree)``."""
    basis = monomials_up_to(desc, degree)
    c = np.zeros(len(basis))
    c[basis.index(alpha)] = 1.0
    return c


class TestSparseStructureConstants:
    """Field matrices and Jacobi sums from the nonzero brackets only match
    the dense-tensor computation."""

    def test_field_table_matches_dense(self, desc):
        # at degree 4 the nested-bracket term acts on every group of step >= 3
        X, D = field_matrices(desc, 4)
        want_X, want_D = dense_field_matrices(desc, 4)
        assert X.shape == want_X.shape and np.any(want_X != want_D)
        assert np.array_equal(D, want_D)
        assert np.max(np.abs(X - want_X)) <= 1e-15

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
        # X1 = d1 - (x2/2) d3, X2 = d2 + (x1/2) d3
        X, _ = field_matrices(h1)
        x3 = unit(h1, (0, 0, 1))
        assert np.array_equal(X[0] @ x3, -0.5 * unit(h1, (0, 1, 0)))
        assert np.array_equal(X[1] @ x3, 0.5 * unit(h1, (1, 0, 0)))
        alij = field_coefficients(h1)
        assert alij[0, 0, 1] == 0.5  # a^{31}_2
        assert alij[0, 1, 0] == -0.5  # a^{32}_1

    def test_abelian_all_zero(self, r3):
        assert field_coefficients(r3).size == 0
        X, D = field_matrices(r3, 3)
        assert np.array_equal(X, D)

    @pytest.mark.parametrize("fixture", ["h1", "h2", "fs3", "eng"])
    def test_antisymmetry(self, fixture, request):
        alij = field_coefficients(request.getfixturevalue(fixture))
        assert np.max(np.abs(alij + np.swapaxes(alij, 1, 2))) <= 1e-14
        assert not alij.flags.writeable

    def test_engel_third_layer_homogeneity(self, eng):
        # X1 x4 = a^4_1, homogeneous of degree d_4 - d_1 = 2
        X, _ = field_matrices(eng, 3)
        a = X[0] @ unit(eng, (0, 0, 0, 1), 3)
        basis = monomials_up_to(eng, 3)
        assert {weighted_degree(basis[k], eng) for k in np.flatnonzero(a)} == {2}
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1, 1, (100, eng.dim))
        for r in (0.5, 2.0, 3.0):
            lhs = evaluate(eng, a, eng.dilate(r, pts))
            assert np.max(np.abs(lhs - r**2 * evaluate(eng, a, pts))) < 1e-12

    @pytest.mark.parametrize("fixture", ["fs3", "eng", "filiform4"])
    def test_coefficients_match_t_derivative(self, fixture, request):
        # a^l_j(x) = X_j x_l is the derivative of t -> (x * t e_j)_l at t = 0;
        # at step 4 (filiform4) this also pins the absence of a cubic term
        desc = request.getfixturevalue(fixture)
        X, _ = field_matrices(desc, desc.step)
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, desc.dim)
        eps = 1e-6
        for j in range(desc.dim):
            plus = desc.product(x, eps * np.eye(desc.dim)[j])
            minus = desc.product(x, -eps * np.eye(desc.dim)[j])
            fd = (plus - minus) / (2 * eps)
            for l in range(desc.dim):
                if desc.dilation_exponents[l] <= desc.dilation_exponents[j]:
                    continue
                a = X[j] @ unit(desc, tuple(np.eye(desc.dim, dtype=int)[l]), desc.step)
                assert abs(fd[l] - evaluate(desc, a, x)) < 1e-8

    def test_broken_grading_rejected(self):
        # [e1, e3] = e2 maps weights 1 + 2 to weight 1
        desc = GroupDescriptor("graded", (2, 1), {(0, 1, 2): 1.0, (1, 0, 2): -1.0, (0, 2, 1): 1.0, (2, 0, 1): -1.0})
        with pytest.raises(DescriptorError, match="grading"):
            field_coefficients(desc)
        with pytest.raises(DescriptorError, match="grading"):
            field_matrices(desc)


def flow_derivative(desc, c, pts, j, eps=1e-6):
    """d/dt P(x * t e_j) at t = 0, by central differences through the group product."""
    ej = np.eye(desc.dim)[j]
    return (evaluate(desc, c, desc.product(pts, eps * ej)) - evaluate(desc, c, desc.product(pts, -eps * ej))) / (2 * eps)


class TestApplyField:
    """X_j applied to a polynomial is the matrix-vector product X[j] @ c."""

    def test_heisenberg_vertical(self, h1):
        X, _ = field_matrices(h1)
        assert np.array_equal(X[0] @ unit(h1, (0, 0, 1)), -0.5 * unit(h1, (0, 1, 0)))
        assert np.array_equal(X[1] @ unit(h1, (0, 0, 1)), 0.5 * unit(h1, (1, 0, 0)))

    def test_horizontal_coordinate(self, h1):
        X, _ = field_matrices(h1)
        assert np.array_equal(X[0] @ unit(h1, (1, 0, 0)), unit(h1, (0, 0, 0)))

    def test_abelian_equals_partial(self, r3):
        X, D = field_matrices(r3, 3)
        p = 0.7 * unit(r3, (2, 1, 0), 3) - 0.2 * unit(r3, (0, 0, 3), 3)
        for j in range(3):
            assert np.array_equal(X[j] @ p, D[j] @ p)

    def test_degree_drops_by_field_weight(self, eng):
        X, _ = field_matrices(eng, 3)
        basis = monomials_up_to(eng, 3)
        x4 = unit(eng, (0, 0, 0, 1), 3)  # weight 3
        assert np.array_equal(X[3] @ x4, unit(eng, (0, 0, 0, 0), 3))
        assert max(weighted_degree(basis[k], eng) for k in np.flatnonzero(X[0] @ x4)) <= 2

    def test_matches_finite_difference_along_flows(self, eng):
        # X_j P (x) equals d/dt P(x * t e_j) at t = 0
        X, _ = field_matrices(eng)
        rng = np.random.default_rng(3)
        c = rng.uniform(-1, 1, len(monomials_up_to(eng, 2)))
        pts = rng.uniform(-1, 1, (50, eng.dim))
        for j in range(len(X)):
            exact = evaluate(eng, X[j] @ c, pts)
            assert np.max(np.abs(flow_derivative(eng, c, pts, j) - exact) / (1.0 + np.abs(exact))) < 1e-7


class TestFieldMatrices:
    """X_j and d/dx_j as matrices on the coefficient vectors of degree <= 2."""

    def test_matrices_match_polynomial_arithmetic(self, desc):
        # the same bits as the dense reference on the degree <= 2 span
        X, D = field_matrices(desc)
        n = len(monomials_up_to(desc, 2))
        assert X.shape == D.shape == (desc.m2, n, n)
        want_X, want_D = dense_field_matrices(desc, 2)
        assert np.array_equal(X, want_X) and np.array_equal(D, want_D)

    def test_abelian_fields_are_partials(self, r3):
        X, D = field_matrices(r3)
        assert X.shape == (3, 10, 10) and np.array_equal(X, D)

    def test_cached_per_descriptor(self, h1):
        assert field_matrices(h1) is field_matrices(h1)
        assert field_matrices(h1, 3) is field_matrices(h1, 3) is not field_matrices(h1)

    def test_coefficient_vector_basis_order(self, h1):
        # entry k is the coefficient of monomials_up_to(desc, 2)[k]; the constant comes first
        terms = [{"exponents": [0, 0, 0], "coeff": 2.0}, {"exponents": [1, 1, 0], "coeff": -1.0}]
        c = parse_polynomial(h1, terms)
        assert c[0] == 2.0 and c[monomials_up_to(h1, 2).index((1, 1, 0))] == -1.0
        assert np.count_nonzero(c) == 2


@pytest.mark.parametrize("group", ["eng", "filiform4-seeded"])
class TestFieldsAboveDegreeTwo:
    """On degree <= 2 the nested-bracket term never acts: it multiplies d/dx_l
    with d_l >= 3, which vanishes there.  Above degree 2 it does."""

    @pytest.fixture
    def desc(self, group, request):
        return seeded_filiform4() if group == "filiform4-seeded" else request.getfixturevalue(group)

    @pytest.mark.parametrize("degree", [3, 4, 5])
    def test_matches_flow_derivative(self, desc, degree):
        X, _ = field_matrices(desc, degree)
        assert X.shape[0] == sum(1 for d in desc.dilation_exponents if d <= degree)
        rng = np.random.default_rng(degree)
        c = rng.uniform(-1, 1, len(monomials_up_to(desc, degree)))
        pts = rng.uniform(-0.7, 0.7, (30, desc.dim))
        for j in range(len(X)):
            exact = evaluate(desc, X[j] @ c, pts)
            assert np.max(np.abs(flow_derivative(desc, c, pts, j) - exact) / (1.0 + np.abs(exact))) < 1e-7

    def test_nested_bracket_term(self, desc):
        # X2 x4 = [x, [x, e2]]_4 / 12 = c1 c2 x1^2 / 12, with [e1, e2] = c1 e3
        # and [e1, e3] = c2 e4
        X, _ = field_matrices(desc, 3)
        c1, c2 = desc.structure[0, 1, 2], desc.structure[0, 2, 3]
        want = c1 * c2 / 12.0 * unit(desc, (2,) + (0,) * (desc.dim - 1), 3)
        assert np.max(np.abs(X[1] @ unit(desc, (0, 0, 0, 1) + (0,) * (desc.dim - 4), 3) - want)) <= 1e-16

    def test_polynomial_field_gradient(self, desc):
        # a {"polynomial": ...} field of degree 4 takes its gradient X[:m1] @ c
        # from the degree-4 matrices
        exponents = [[1, 1, 1] + [0] * (desc.dim - 3), [1, 0, 0, 1] + [0] * (desc.dim - 4), [0, 2, 1] + [0] * (desc.dim - 3)]
        terms = [{"exponents": e, "coeff": v} for e, v in zip(exponents, (0.5, -1.0, 0.25))]
        u = function_from_spec(desc, {"polynomial": terms})
        c = parse_polynomial(desc, terms)
        assert len(c) == len(monomials_up_to(desc, 4))
        pts = np.random.default_rng(5).uniform(-0.7, 0.7, (30, desc.dim))
        grad = u.gradient(pts)
        for j in range(desc.m1):
            fd = flow_derivative(desc, c, pts, j)
            assert np.max(np.abs(fd - grad[:, j]) / (1.0 + np.abs(grad[:, j]))) < 1e-7
