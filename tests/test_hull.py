import numpy as np
import pytest

from carnot import ConvexPolytope, hausdorff_distance
from carnot.hull import centroids, diameters, supports
from carnot.sampling import unit_directions


SQUARE = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])


def _inside(V, p, tol=1e-9):
    """p lies in the hull of the rows V when no direction's support value falls below <p, u>."""
    dirs = unit_directions(V.shape[1], 512)
    return bool(np.max(dirs @ np.asarray(p, dtype=float) - supports(V[None], dirs)[0]) <= tol)


class TestPolytope:
    def test_support_and_contains(self):
        assert supports(SQUARE[None], np.array([1.0, 0.0]))[0] == 1.0
        assert supports(SQUARE[None], np.array([1.0, 1.0]))[0] == 2.0
        assert _inside(SQUARE, [0.3, -0.9])
        assert not _inside(SQUARE, [1.2, 0.0], tol=1e-6)

    def test_diameter(self):
        assert abs(diameters(SQUARE[None])[0] - 2 * np.sqrt(2)) < 1e-12
        assert diameters(np.array([[[2.0, 3.0]]]))[0] == 0.0

    def test_translate_scale(self):
        moved = 2.0 * (SQUARE + [1.0, 0.0])
        assert supports(moved[None], np.array([1.0, 0.0]))[0] == 4.0

    def test_hausdorff(self):
        A = ConvexPolytope.from_points(SQUARE)
        B = ConvexPolytope.from_points(1.1 * A.vertices)
        d = hausdorff_distance(A, B)
        # scaled square: support gap is 0.1 * max |support| over directions
        assert abs(d - 0.1 * np.sqrt(2)) < 1e-3

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_high_dim_cloud_support(self, dim):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((40, dim))
        h = rng.standard_normal(dim)
        (support,) = supports(pts[None], h)
        assert support == supports(pts[None], h[None])[0, 0]
        assert support == float(np.max(np.einsum("kd,d->k", pts, h)))
        pairwise = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        assert diameters(pts[None])[0] == float(np.max(pairwise))

    def test_raw_rows_answer_as_distinct_rows(self):
        # a hull keeps repeated rows: every query equals that of the
        # deduplicated hull, bit for bit
        rng = np.random.default_rng(4)
        for dim in (2, 3, 4):
            pts = rng.standard_normal((5, dim))
            dirs = unit_directions(dim, 64)
            for rows in (pts[:1], pts):
                raw = rows[rng.integers(0, len(rows), 48)][None]
                distinct = np.unique(rows, axis=0)[None]
                assert distinct.shape[1] == len(rows) < raw.shape[1]
                assert centroids(raw).tolist() == centroids(distinct).tolist()
                assert diameters(raw).tolist() == diameters(distinct).tolist()
                assert supports(raw, dirs).tolist() == supports(distinct, dirs).tolist()


class TestDiameters:
    @pytest.mark.parametrize("m1", [2, 3, 4])
    def test_equal_pairwise_norms_bit_for_bit(self, m1):
        # summed one coordinate at a time in norm's order, rooted once per hull
        rng = np.random.default_rng(m1)
        V = rng.standard_normal((6, 48, m1)) * 10.0 ** rng.uniform(-9, 2, (6, 1, 1))
        want = [np.max(np.linalg.norm(v[:, None, :] - v[None, :, :], axis=-1)) for v in V]
        assert diameters(V).tolist() == want
        assert [diameters(v[None])[0] for v in V] == want

    def test_one_row_is_a_point(self):
        assert diameters(np.array([[[2.0, 3.0]], [[-1.0, 0.5]]])).tolist() == [0.0, 0.0]

    def test_empty_hull_certifies_nothing(self):
        # no generating point is no singleton: NaN fails every `diam <= tol`
        assert np.isnan(diameters(np.empty((3, 0, 2)))).all()
        (diam,) = diameters(np.empty((1, 0, 2)))
        assert np.isnan(diam) and not diam <= 1e-3

    def test_nan_row_reads_nan_in_its_hull_only(self):
        V = np.random.default_rng(5).standard_normal((3, 8, 2))
        V[1, 4, 0] = np.nan
        d = diameters(V)
        assert np.isnan(d[1]) and np.isfinite(d[[0, 2]]).all()


class TestBatchedQueries:
    @pytest.mark.parametrize("m1", [2, 3, 4])
    def test_centroids_equal_distinct_row_means_bit_for_bit(self, m1):
        # sorted lexicographically and summed in that order, as np.unique
        # leaves the rows, with each repeat masked to zero
        rng = np.random.default_rng(m1)
        pool = rng.standard_normal((6, 5, m1)) * 10.0 ** rng.uniform(-9, 2, (6, 1, 1))
        repeats = np.take_along_axis(pool, rng.integers(0, 5, (6, 48))[..., None], axis=1)
        zeros = np.zeros((2, 9, m1))
        zeros[0, :, 0] = -0.0
        zeros[1, :4] = rng.standard_normal(m1)
        for V in (pool, repeats, zeros, rng.standard_normal((4, 130, m1)), pool[:, :1]):
            want = np.stack([np.unique(v, axis=0).mean(axis=0) for v in V])
            assert centroids(V).tobytes() == want.tobytes()
            assert [centroids(v[None])[0].tobytes() for v in V] == [w.tobytes() for w in want]

    @pytest.mark.parametrize("m1", [2, 3, 4])
    def test_supports_equal_per_hull_values(self, m1):
        # the contraction of a row depends neither on the other rows nor on the other hulls
        rng = np.random.default_rng(m1)
        V = rng.standard_normal((5, 48, m1))
        dirs = unit_directions(m1, 64)
        batched = supports(V, dirs)
        assert batched.shape == (5, 64)
        for v, s in zip(V, batched):
            assert np.array_equal(s, np.max(np.einsum("kd,jd->kj", v, dirs), axis=0))
            assert supports(v[None], dirs[3]) == s[3]
