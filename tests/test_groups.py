import tracemalloc

import numpy as np
import pytest

from carnot import DescriptorError, GroupDescriptor, validate_descriptor
from carnot import groups as groups_mod
from carnot.sampling import ball, quasi_sphere, sphere_shell

GROUPS = ["h1", "h2", "fs3", "eng", "filiform4"]
BLOCK = groups_mod._ROW_BLOCK


def dense_bracket(desc, u, v):
    """The bracket as a contraction with the dense structure tensor."""
    return np.einsum("...i,...j,ijk->...k", u, v, desc.structure)


def closed_form_product(desc, x, y):
    """Hand-coded BCH through nested depth 4 on the dense bracket
    (independent of the sparse, blocked group law)."""
    b = lambda u, v: dense_bracket(desc, u, v)
    z = x + y + 0.5 * b(x, y)
    z = z + (1.0 / 12.0) * (b(x, b(x, y)) + b(y, b(y, x)))
    return z - (1.0 / 24.0) * b(y, b(x, b(x, y)))


def entry_order_product(desc, x, y):
    """The BCH chain on full arrays, each bracket column summed in entry order
    from +0: the bits of a (nnz, dim) scatter matmul without fused
    multiply-adds."""

    def b(u, v):
        out = np.zeros(np.broadcast(u, v).shape)
        for i, j, k, c in desc.bracket_entries:
            out[..., k] += u[..., i] * v[..., j] * c
        return out

    z = x + y
    if desc.step >= 2:
        xy = b(x, y)
        z += 0.5 * xy
    if desc.step >= 3:
        xxy = b(x, xy)
        z += (xxy - b(y, xy)) / 12.0
    if desc.step >= 4:
        z -= b(y, xxy) / 24.0
    return z


class TestValidation:
    def test_heisenberg_passes(self, h1):
        assert validate_descriptor(h1).ok

    def test_abelian_passes(self, r3):
        report = validate_descriptor(r3)
        assert report.ok and report.violations == ()

    def test_missing_brackets_fail_stratification(self):
        desc = GroupDescriptor("flat", (2, 1), {})
        report = validate_descriptor(desc)
        assert not report.ok
        assert [v.kind for v in report.violations] == ["stratification"]
        assert report.violations[0].indices == (2,)

    def test_broken_antisymmetry_reported(self):
        desc = GroupDescriptor("skewless", (2, 1), {(0, 1, 2): 1.0, (1, 0, 2): 1.0})
        kinds = {v.kind for v in validate_descriptor(desc).violations}
        assert "antisymmetry" in kinds

    def test_broken_grading_reported(self):
        desc = GroupDescriptor("graded", (2, 1), {(0, 1, 2): 1.0, (1, 0, 2): -1.0, (0, 2, 1): 1.0, (2, 0, 1): -1.0})
        kinds = {v.kind for v in validate_descriptor(desc).violations}
        assert "grading" in kinds

    def test_jacobi_violation_reported(self):
        # [e1,e2]=e4, [e1,e3]=e5, [e2,e3]=e6 is fine; corrupt one Jacobi-relevant entry
        br = {}
        for (i, j, k) in [(0, 1, 3), (0, 2, 4), (1, 2, 5)]:
            br[(i, j, k)] = 1.0
            br[(j, i, k)] = -1.0
        ok = GroupDescriptor("fs3", (3, 3), br)
        assert validate_descriptor(ok).ok
        bad = GroupDescriptor(
            "bad-jacobi2",
            (3, 3, 1),
            {
                (0, 1, 3): 1.0, (1, 0, 3): -1.0,
                (0, 2, 4): 1.0, (2, 0, 4): -1.0,
                (1, 2, 5): 1.0, (2, 1, 5): -1.0,
                # V3 = [V1, V2]: only e1 acts; Jacobi on (0,1,2) then forces
                # [e1,e5] - [e2,e4] + [e3,e3-like] to cancel, which this breaks
                (0, 5, 6): 1.0, (5, 0, 6): -1.0,
            },
        )
        report = validate_descriptor(bad)
        assert not report.ok
        assert "jacobi" in {v.kind for v in report.violations}


class TestProduct:
    def test_heisenberg_basic(self, h1):
        z = h1.product(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))
        assert np.allclose(z, [1, 1, 0.5], atol=1e-15)

    def test_identity(self, h1):
        x = np.array([0.3, -1.2, 0.7])
        assert np.array_equal(h1.product(x, h1.identity()), x)
        assert np.array_equal(h1.product(h1.identity(), x), x)

    def test_inverse_is_negation(self, h1):
        assert np.array_equal(h1.inverse(np.array([1.0, 2.0, 3.0])), [-1, -2, -3])
        assert np.array_equal(h1.inverse(h1.identity()), np.zeros(3))

    def test_inverse_cancels(self, h1):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, (200, 3))
        assert np.max(np.abs(h1.product(x, h1.inverse(x)))) < 1e-14

    def test_heisenberg_hand_formula(self, h1):
        rng = np.random.default_rng(5)
        x, y = rng.uniform(-1, 1, (2, 500, 3))
        z = h1.product(x, y)
        assert np.allclose(z[:, 2], x[:, 2] + y[:, 2] + 0.5 * (x[:, 0] * y[:, 1] - x[:, 1] * y[:, 0]), atol=1e-15)

    @pytest.mark.parametrize("fixture", ["h1", "h2", "fs3", "eng", "filiform4"])
    def test_matches_closed_form(self, fixture, request):
        desc = request.getfixturevalue(fixture)
        rng = np.random.default_rng(7)
        x, y = rng.uniform(-1, 1, (2, 200, desc.dim))
        assert np.max(np.abs(desc.product(x, y) - closed_form_product(desc, x, y))) < 1e-13

    @pytest.mark.parametrize("fixture", ["h1", "h2", "fs3", "eng", "filiform4"])
    def test_associativity(self, fixture, request):
        desc = request.getfixturevalue(fixture)
        rng = np.random.default_rng(11)
        x, y, z = rng.uniform(-1, 1, (3, 300, desc.dim))
        lhs = desc.product(desc.product(x, y), z)
        rhs = desc.product(x, desc.product(y, z))
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_step1_is_vector_addition(self, r3):
        rng = np.random.default_rng(13)
        x, y = rng.uniform(-5, 5, (2, 100, 3))
        assert np.array_equal(r3.product(x, y), x + y)

    def test_dimension_mismatch_raises(self, h1):
        with pytest.raises(DescriptorError):
            h1.product(np.zeros(4), np.zeros(4))

    def test_degree_bound_in_t(self, eng):
        # bch(x, t e_j)_l is polynomial of degree <= step: fit on step+1 nodes,
        # predict a held-out node
        rng = np.random.default_rng(17)
        x = rng.uniform(-1, 1, eng.dim)
        for j in range(eng.dim):
            nodes = np.arange(1, eng.step + 2, dtype=float)
            vals = np.stack([eng.product(x, t * np.eye(eng.dim)[j]) for t in nodes])
            V = np.vander(nodes, eng.step + 1, increasing=True)
            coeffs = np.linalg.solve(V, vals)
            t_hold = float(eng.step + 2)
            pred = np.sum(coeffs * t_hold ** np.arange(eng.step + 1)[:, None], axis=0)
            actual = eng.product(x, t_hold * np.eye(eng.dim)[j])
            assert np.max(np.abs(pred - actual)) < 1e-12


class TestSparseBlockedLaw:
    """The sparse, row-blocked product against the dense law."""

    @pytest.mark.parametrize("rows", [None, 1000, BLOCK, BLOCK + 1, 0], ids=["point", "1000", "block", "block+1", "empty"])
    @pytest.mark.parametrize("fixture", GROUPS)
    def test_matches_dense(self, fixture, rows, request):
        desc = request.getfixturevalue(fixture)
        shape = (desc.dim,) if rows is None else (rows, desc.dim)
        x, y = np.random.default_rng(31).uniform(-1, 1, (2,) + shape)
        got = desc.product(x, y)
        assert got.shape == shape
        assert np.max(np.abs(got - closed_form_product(desc, x, y)), initial=0.0) <= 1e-15

    @pytest.mark.parametrize("b, d", [(97, 89), (3, BLOCK + 1)], ids=["slices-per-block", "slice-beyond-block"])
    @pytest.mark.parametrize("fixture", GROUPS)
    def test_broadcast_pair_beyond_one_block(self, fixture, b, d, request):
        desc = request.getfixturevalue(fixture)
        rng = np.random.default_rng(37)
        x = rng.uniform(-1, 1, (b, 1, desc.dim))
        y = rng.uniform(-1, 1, (1, d, desc.dim))
        assert b * d > BLOCK
        got = desc.product(x, y)
        assert got.shape == (b, d, desc.dim)
        assert np.max(np.abs(got - closed_form_product(desc, x, y))) <= 1e-15

    def test_abelian_bracket_is_zero(self, r3):
        assert r3.bracket_entries == ()
        rng = np.random.default_rng(41)
        x = rng.uniform(-1, 1, (5, 1, 3))
        y = rng.uniform(-1, 1, (1, 4, 3))
        assert np.array_equal(r3.product(x, y), x + y)

    @pytest.mark.parametrize("fixture", GROUPS)
    def test_nan_stays_in_its_row(self, fixture, request):
        desc = request.getfixturevalue(fixture)
        x, y = np.random.default_rng(43).uniform(-1, 1, (2, 2 * BLOCK + 5, desc.dim))
        x[-1, 0] = np.nan
        out = desc.product(x, y)
        assert np.isnan(out[-1]).any()
        assert np.isfinite(out[:-1]).all()

    @pytest.mark.parametrize(
        "xshape, yshape", [((100_000, 4), (100_000, 4)), ((300, 1, 4), (1, 333, 4)), ((2, 1, 4), (1, 50_000, 4))]
    )
    def test_chain_sees_one_block_at_most(self, monkeypatch, eng, xshape, yshape):
        seen = []
        bch = GroupDescriptor._bch

        def spy(self, x, y, z):
            seen.append(np.size(z[0]))  # the block's rows: the size of one coordinate column
            return bch(self, x, y, z)

        monkeypatch.setattr(GroupDescriptor, "_bch", spy)
        rng = np.random.default_rng(47)
        x, y = rng.uniform(-1, 1, xshape), rng.uniform(-1, 1, yshape)
        out = eng.product(x, y)
        rows = out.size // eng.dim
        assert max(seen) <= BLOCK and sum(seen) == rows
        assert np.max(np.abs(out - closed_form_product(eng, x, y))) <= 1e-15

    @pytest.mark.parametrize("fixture", GROUPS)
    def test_row_does_not_depend_on_its_batch(self, fixture, request):
        # the bit-level invariant the report pins rely on: one point's product
        # is the same alone, at any row of any batch, and inside a broadcast
        desc = request.getfixturevalue(fixture)
        rng = np.random.default_rng(53)
        n = desc.dim
        x, y = rng.uniform(-1, 1, (2, 2 * BLOCK + 5, n))
        for a in (x, y):
            mask = rng.random(a.shape)
            a[mask < 0.1] = 0.0
            a[mask > 0.9] = -0.0
        x[3:6, : desc.m1] = -0.0  # rows whose x + y starts from signed zeros
        y[4:6, : desc.m1] = -0.0
        alone = np.stack([desc.product(x[r], y[r]) for r in range(1000)])
        for rows in (2, 3, 7, 20, 40, 1000):
            got = np.concatenate([desc.product(x[a : a + rows], y[a : a + rows]) for a in range(0, 1000, rows)])
            assert got[:1000].tobytes() == alone.tobytes()
        got = desc.product(x, y)
        assert got[:1000].tobytes() == alone.tobytes()
        for r in (BLOCK - 1, BLOCK, 2 * BLOCK + 4):  # rows past the first block
            assert got[r].tobytes() == desc.product(x[r], y[r]).tobytes()
        K, M = 7, 40
        got = desc.product(x[:K, None, :], y[None, :M, :])
        assert all(got[i, j].tobytes() == desc.product(x[i], y[j]).tobytes() for i in range(K) for j in range(M))
        assert got[np.arange(K), np.arange(K)].tobytes() == alone[:K].tobytes()

    @pytest.mark.parametrize("fixture", ["r3", *GROUPS, "filiform_scaled"])
    def test_bits_of_entry_order_sums(self, fixture, request):
        # no BLAS: the same bits under every kernel, signed zeros included
        if fixture == "filiform_scaled":
            br = {(0, 1, 2): 0.7, (0, 2, 3): 1.3, (0, 3, 4): 0.9}
            desc = GroupDescriptor("filiform_scaled", (2, 1, 1, 1), {**br, **{(j, i, k): -c for (i, j, k), c in br.items()}})
        else:
            desc = request.getfixturevalue(fixture)
        rng = np.random.default_rng(61)
        x, y = rng.choice([0.0, -0.0, 0.5, -1.0, 0.3, -0.7, 1e-3], (2, 500, desc.dim))
        expected = entry_order_product(desc, x, y)
        assert desc.product(x, y).tobytes() == expected.tobytes()
        assert desc.product(x[:50, None], y[None, :10])[7, 7].tobytes() == expected[7].tobytes()
        assert all(desc.product(x[r], y[r]).tobytes() == expected[r].tobytes() for r in range(50))

    @pytest.mark.parametrize("fixture", GROUPS)
    def test_broadcast_operands_are_not_copied(self, fixture, request):
        desc = request.getfixturevalue(fixture)
        rng = np.random.default_rng(59)
        x = rng.uniform(-1, 1, (50, 1, desc.dim))
        y = rng.uniform(-1, 1, (1, 48, desc.dim))
        tracemalloc.start()
        try:
            out = desc.product(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * out.nbytes


class TestDilationsAndNorm:
    def test_dilation_exponents(self, h1):
        assert np.allclose(h1.dilate(2.0, np.array([1.0, 1, 1])), [2, 2, 4])

    def test_dilation_identity(self, eng):
        x = np.array([0.5, -0.25, 2.0, 1.0])
        assert np.array_equal(eng.dilate(1.0, x), x)

    def test_dilation_rejects_nonpositive(self, h1):
        with pytest.raises(DescriptorError):
            h1.dilate(-1.0, np.zeros(3))

    @pytest.mark.parametrize("fixture", ["h1", "fs3", "eng"])
    def test_dilation_homomorphism(self, fixture, request):
        desc = request.getfixturevalue(fixture)
        rng = np.random.default_rng(19)
        x, y = rng.uniform(-1, 1, (2, 200, desc.dim))
        r = rng.uniform(0.2, 2.5, 200)
        lhs = desc.dilate(r, desc.product(x, y))
        rhs = desc.product(desc.dilate(r, x), desc.dilate(r, y))
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_norm_values(self, h1, homogeneous_norm):
        assert homogeneous_norm(h1, np.array([3.0, 4.0, 0.0])) == 5.0
        assert homogeneous_norm(h1, np.array([0.0, 0.0, 4.0])) == 2.0
        assert homogeneous_norm(h1, h1.identity()) == 0.0

    def test_norm_homogeneity(self, eng, homogeneous_norm):
        rng = np.random.default_rng(23)
        x = rng.uniform(-1, 1, (300, eng.dim))
        r = rng.uniform(0.1, 3.0, 300)
        assert np.max(np.abs(homogeneous_norm(eng, eng.dilate(r, x)) - r * homogeneous_norm(eng, x))) < 1e-13

    def test_left_translation_isometry(self, eng, homogeneous_norm):
        rng = np.random.default_rng(29)
        x, y, u = rng.uniform(-1, 1, (3, 200, eng.dim))
        distance = lambda a, b: homogeneous_norm(eng, eng.product(eng.inverse(a), b))  # ||a^-1 b||
        d1 = distance(x, y)
        d2 = distance(eng.product(u, x), eng.product(u, y))
        assert np.max(np.abs(d1 - d2)) < 1e-12

    @pytest.mark.parametrize("fixture", GROUPS)
    def test_samplers_draw_by_the_norm(self, fixture, request, homogeneous_norm):
        # quasi_sphere on the unit sphere, sphere_shell on the sphere of
        # radius r and ball inside it, as their docstrings state
        desc = request.getfixturevalue(fixture)
        rng = np.random.default_rng(53)
        assert np.max(np.abs(homogeneous_norm(desc, quasi_sphere(desc, 500, seed=3)) - 1.0)) < 1e-12
        for r in (0.05, 0.6, 2.5):
            assert np.max(np.abs(homogeneous_norm(desc, sphere_shell(desc, r, 500, rng)) - r)) < 1e-12 * r
            norms = homogeneous_norm(desc, ball(desc, r, 500, rng))
            assert np.all(norms <= r * (1.0 + 1e-12)) and np.max(norms) > 0.9 * r


class TestProjections:
    def test_layers(self, h1):
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(x[h1.layer_slice(1)], [1, 2])
        assert np.array_equal(x[h1.layer_slice(2)], [3])

    def test_abelian_full_slice(self, r3):
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(x[r3.layer_slice(1)], x)

    def test_out_of_range(self, h1):
        with pytest.raises(DescriptorError):
            h1.layer_slice(3)
