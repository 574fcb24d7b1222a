"""Reorthogonalized block QR with condition-limited column acceptance."""

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg as sla

import sstep.blockqr
from sstep import BreakdownError, ReductionCounter, bcgs2_partial_cholqr
from sstep.blockqr import project


def ortho_basis(rng, n, i):
    if i == 0:
        return np.zeros((n, 0))
    return np.linalg.qr(rng.standard_normal((n, i)))[0]


class TestWellConditioned:
    def test_from_empty_basis_matches_householder(self):
        rng = np.random.default_rng(41)
        v = rng.standard_normal((30, 5))
        out = bcgs2_partial_cholqr(np.zeros((30, 0)), v, 1e7)
        assert out.p == 5 and out.stopped_by == "none"
        npt.assert_allclose(out.q_new.T @ out.q_new, np.eye(5), atol=1e-14)
        # same span as a Householder factorization
        qh = np.linalg.qr(v)[0]
        angles = sla.subspace_angles(out.q_new, qh)
        assert np.max(angles) < 1e-12
        # first coefficient column is empty when there is no prior basis
        npt.assert_array_equal(out.r_hat[:, 0], np.zeros(5))
        npt.assert_allclose(out.q_new @ out.r_hat[:, 1:], v, atol=1e-13)

    def test_against_existing_basis(self):
        rng = np.random.default_rng(42)
        n, i, s = 40, 6, 4
        q = ortho_basis(rng, n, i)
        v = rng.standard_normal((n, s))
        out = bcgs2_partial_cholqr(q, v, 1e7)
        assert out.p == s
        npt.assert_allclose(q.T @ out.q_new, np.zeros((i, s)), atol=1e-14)
        npt.assert_allclose(out.q_new.T @ out.q_new, np.eye(s), atol=1e-14)
        # r_hat reconstructs the candidates in the extended basis and
        # carries the seed unit vector in its first column
        ext = np.column_stack([q, out.q_new])
        npt.assert_allclose(ext @ out.r_hat[:, 1:], v, atol=1e-12)
        e_seed = np.zeros(i + s)
        e_seed[i - 1] = 1.0
        npt.assert_array_equal(out.r_hat[:, 0], e_seed)

    def test_diagonal_of_new_block_positive(self):
        rng = np.random.default_rng(43)
        out = bcgs2_partial_cholqr(ortho_basis(rng, 25, 3), rng.standard_normal((25, 5)), 1e7)
        trailing = out.r_hat[3:, 1:]
        assert np.all(np.diag(trailing) > 0)
        npt.assert_allclose(np.tril(trailing, -1), 0.0, atol=1e-16)


class TestReductionEvents:
    @pytest.mark.parametrize("i,s", [(0, 3), (4, 1), (7, 5)])
    def test_exactly_four_events(self, i, s):
        rng = np.random.default_rng(44)
        counter = ReductionCounter()
        q = ortho_basis(rng, 30, i)
        bcgs2_partial_cholqr(q, rng.standard_normal((30, s)), 1e7, counter=counter)
        assert counter.get("projections", "ortho") == 2
        assert counter.get("gram_products", "ortho") == 2
        assert counter.phase_reductions("ortho") == 4

    def test_four_events_even_when_truncated(self):
        rng = np.random.default_rng(45)
        counter = ReductionCounter()
        v = rng.standard_normal((30, 4))
        v[:, 2] = v[:, 0] + 1e-12 * v[:, 1]  # nearly dependent
        out = bcgs2_partial_cholqr(np.zeros((30, 0)), v, 1e7, counter=counter)
        assert out.p < 4
        assert counter.phase_reductions("ortho") == 4


class TestIllConditioned:
    def test_orthogonality_survives_bad_block(self):
        rng = np.random.default_rng(46)
        n, i = 60, 5
        q = ortho_basis(rng, n, i)
        base = rng.standard_normal(n)
        v = np.column_stack([base * (10.0 ** -(3 * k)) + 1e-9 * rng.standard_normal(n)
                             for k in range(5)])
        out = bcgs2_partial_cholqr(q, v, 1e7)
        assert 1 <= out.p <= 5
        ext = np.column_stack([q, out.q_new])
        npt.assert_allclose(ext.T @ ext, np.eye(i + out.p), atol=1e-13)

    def test_condition_stop_is_visible_in_trace(self):
        rng = np.random.default_rng(47)
        n = 50
        u = np.linalg.qr(rng.standard_normal((n, 4)))[0]
        v = u @ np.diag([1.0, 1e-2, 1e-5, 1e-12])
        out = bcgs2_partial_cholqr(np.zeros((n, 0)), v, 1e7)
        assert out.stopped_by == "condition"
        assert out.p < 4
        assert len(out.cond_trace) == out.p + 1
        assert out.cond_trace[-1] > 1e7
        assert np.all(out.cond_trace[:-1] <= 1e7)

    def test_zero_block_breaks_down(self):
        with pytest.raises(BreakdownError):
            bcgs2_partial_cholqr(np.zeros((10, 0)), np.zeros((10, 3)), 1e7)

    def test_candidates_equal_to_basis_columns_break_down(self):
        q = np.eye(20)[:, :4]  # exactly orthonormal, so projection cancels exactly
        v = q[:, :2].copy()
        with pytest.raises(BreakdownError):
            bcgs2_partial_cholqr(q, v, 1e7)

    def test_roundoff_candidate_ends_prefix_as_pivot_stop(self):
        # the third candidate lies in span(q) up to roundoff: the first two
        # are kept, the stop is recorded like a pivot stop, and it costs
        # no extra reduction
        rng = np.random.default_rng(48)
        n = 40
        q = ortho_basis(rng, n, 3)
        v = rng.standard_normal((n, 4))
        v[:, 2] = q @ rng.standard_normal(3)
        counter = ReductionCounter()
        out = bcgs2_partial_cholqr(q, v, 1e7, counter=counter)
        assert out.p == 2 and out.stopped_by == "pivot"
        assert len(out.cond_trace) == 2
        assert counter.phase_reductions("ortho") == 4
        full = bcgs2_partial_cholqr(q, v[:, :2], 1e7)
        npt.assert_array_equal(out.q_new, full.q_new)
        npt.assert_array_equal(out.r_hat, full.r_hat)

    def test_first_candidate_in_span_breaks_down_after_first_pass(self):
        rng = np.random.default_rng(49)
        q = ortho_basis(rng, 40, 3)
        v = np.column_stack([q @ rng.standard_normal(3), rng.standard_normal(40)])
        counter = ReductionCounter()
        with pytest.raises(BreakdownError, match="span"):
            bcgs2_partial_cholqr(q, v, 1e7, counter=counter)
        assert counter.phase_reductions("ortho") == 2


def tiles_of(monkeypatch, i, width):
    """Set the tile budget so that a basis of i rows is summed width columns at a time."""
    monkeypatch.setattr(sstep.blockqr, "TILE_BYTES", 8 * max(i, 1) * width)


class TestTiledProjections:
    @pytest.mark.parametrize("n,i,width", [(45, 1, 45), (45, 1, 44), (45, 7, 6),
                                           (45, 7, 1), (45, 0, 4), (50, 3, 7)])
    def test_project_sums_tiles_to_the_product(self, monkeypatch, n, i, width):
        rng = np.random.default_rng(50)
        qt = rng.standard_normal((i, n))
        rows = rng.standard_normal((5, n))
        tiles_of(monkeypatch, i, width)
        c = project(qt, rows)
        assert c.shape == (i, 5)
        npt.assert_allclose(c, qt @ rows.T, rtol=0, atol=1e-13)
        if width >= n:
            # one tile is the single product
            npt.assert_array_equal(c, qt @ rows.T)

    @pytest.mark.parametrize("i", [0, 1, 7])
    @pytest.mark.parametrize("s", [1, 5])
    @pytest.mark.parametrize("n", [40, 47])
    def test_many_tiles_match_one_product(self, monkeypatch, n, i, s):
        # tiles of 6 columns: several full tiles and a ragged last one
        rng = np.random.default_rng(51)
        q = ortho_basis(rng, n, i)
        v = rng.standard_normal((n, s))
        whole = bcgs2_partial_cholqr(q, v, 1e7)
        tiles_of(monkeypatch, i, 6)
        counter = ReductionCounter()
        tiled = bcgs2_partial_cholqr(q, v, 1e7, counter=counter)
        assert counter.phase_reductions("ortho") == 4
        assert (tiled.p, tiled.stopped_by) == (whole.p, whole.stopped_by)
        npt.assert_allclose(tiled.q_new, whole.q_new, rtol=0, atol=1e-14)
        npt.assert_allclose(tiled.r_hat, whole.r_hat, rtol=0, atol=1e-14)
        npt.assert_allclose(tiled.cond_trace, whole.cond_trace, rtol=1e-14)

    @pytest.mark.parametrize("stop", ["test_roundoff_candidate_ends_prefix_as_pivot_stop",
                                      "test_first_candidate_in_span_breaks_down_after_first_pass"])
    def test_stops_hold_across_tiles(self, monkeypatch, stop):
        # both project n = 40 rows against i = 3 basis vectors: six tiles of
        # 6 columns and a ragged one of 4
        tiles_of(monkeypatch, 3, 6)
        getattr(TestIllConditioned(), stop)()


class TestGuards:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="row dimension"):
            bcgs2_partial_cholqr(np.zeros((5, 2)), np.zeros((6, 2)), 1e7)

    def test_empty_candidates(self):
        with pytest.raises(ValueError, match="empty"):
            bcgs2_partial_cholqr(np.zeros((5, 2)), np.zeros((5, 0)), 1e7)
