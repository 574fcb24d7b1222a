"""Reorthogonalized block QR with condition-limited acceptance, on basis rows."""

import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg as sla

import sstep.blockqr
from sstep import (
    BreakdownError,
    ReductionCounter,
    RitzSet,
    bcgs2_partial_cholqr,
    build_change_of_basis,
    matrix_powers,
)
from sstep.blockqr import OVERFLOW_LIMIT, project, subtract_projection
from sstep.dense import PartialCholeskyResult


def ortho_basis(rng, n, i):
    """i orthonormal rows of length n, one basis vector per row."""
    if i == 0:
        return np.zeros((0, n))
    return np.ascontiguousarray(np.linalg.qr(rng.standard_normal((n, i)))[0].T)


class TestWellConditioned:
    def test_from_empty_basis_matches_householder(self):
        rng = np.random.default_rng(41)
        v = rng.standard_normal((5, 30))
        q_new = v.copy()
        out = bcgs2_partial_cholqr(np.zeros((0, 30)), q_new, 1e7)
        assert out.p == 5 and out.stopped_by == "none"
        npt.assert_allclose(q_new @ q_new.T, np.eye(5), atol=1e-14)
        # same span as a Householder factorization
        qh = np.linalg.qr(v.T)[0]
        angles = sla.subspace_angles(q_new.T, qh)
        assert np.max(angles) < 1e-12
        # first coefficient column is empty when there is no prior basis
        npt.assert_array_equal(out.r_hat[:, 0], np.zeros(5))
        npt.assert_allclose(out.r_hat[:, 1:].T @ q_new, v, atol=1e-13)

    def test_against_existing_basis(self):
        rng = np.random.default_rng(42)
        n, i, s = 40, 6, 4
        q = ortho_basis(rng, n, i)
        v = rng.standard_normal((s, n))
        q_new = v.copy()
        out = bcgs2_partial_cholqr(q, q_new, 1e7)
        assert out.p == s
        npt.assert_allclose(q @ q_new.T, np.zeros((i, s)), atol=1e-14)
        npt.assert_allclose(q_new @ q_new.T, np.eye(s), atol=1e-14)
        # r_hat reconstructs the candidates in the extended basis and
        # carries the seed unit vector in its first column
        ext = np.vstack([q, q_new])
        npt.assert_allclose(out.r_hat[:, 1:].T @ ext, v, atol=1e-12)
        e_seed = np.zeros(i + s)
        e_seed[i - 1] = 1.0
        npt.assert_array_equal(out.r_hat[:, 0], e_seed)

    def test_diagonal_of_new_block_positive(self):
        rng = np.random.default_rng(43)
        out = bcgs2_partial_cholqr(ortho_basis(rng, 25, 3), rng.standard_normal((5, 25)), 1e7)
        trailing = out.r_hat[3:, 1:]
        assert np.all(np.diag(trailing) > 0)
        npt.assert_allclose(np.tril(trailing, -1), 0.0, atol=1e-16)


class TestReductionEvents:
    @pytest.mark.parametrize("i,s", [(0, 3), (4, 1), (7, 5)])
    def test_exactly_four_events(self, i, s):
        rng = np.random.default_rng(44)
        counter = ReductionCounter()
        q = ortho_basis(rng, 30, i)
        bcgs2_partial_cholqr(q, rng.standard_normal((s, 30)), 1e7, counter=counter)
        assert counter.get("projections", "ortho") == 2
        assert counter.get("gram_products", "ortho") == 2
        assert counter.phase_reductions("ortho") == 4

    def test_four_events_even_when_truncated(self):
        rng = np.random.default_rng(45)
        counter = ReductionCounter()
        v = rng.standard_normal((4, 30))
        v[2] = v[0] + 1e-12 * v[1]  # nearly dependent
        out = bcgs2_partial_cholqr(np.zeros((0, 30)), v, 1e7, counter=counter)
        assert out.p < 4
        assert counter.phase_reductions("ortho") == 4


class TestIllConditioned:
    def test_orthogonality_survives_bad_block(self):
        rng = np.random.default_rng(46)
        n, i = 60, 5
        q = ortho_basis(rng, n, i)
        base = rng.standard_normal(n)
        v = np.vstack([base * (10.0 ** -(3 * k)) + 1e-9 * rng.standard_normal(n)
                       for k in range(5)])
        out = bcgs2_partial_cholqr(q, v, 1e7)
        assert 1 <= out.p <= 5
        ext = np.vstack([q, v[: out.p]])
        npt.assert_allclose(ext @ ext.T, np.eye(i + out.p), atol=1e-13)

    def test_inverse_factor_near_the_limit(self, monkeypatch):
        # cond(Z) = cond(V) near 8e6, under the 1e7 limit: the first pass's
        # multiply by Z^-1 agrees with a triangular solve to cond(Z) * eps,
        # and the second pass leaves the rows orthonormal to 1e-14
        rng = np.random.default_rng(2)
        n, i, s = 200, 6, 8
        q = ortho_basis(rng, n, i)
        u = np.linalg.qr(rng.standard_normal((n, s)))[0]
        w = np.linalg.qr(rng.standard_normal((s, s)))[0]
        v = np.ascontiguousarray(((u * np.logspace(0.0, -6.9, s)) @ w.T).T)
        factors, solves = [], []
        invert, multiply = sstep.blockqr.dtrtri, sstep.blockqr.dtrmm

        def spy_invert(z, **kwargs):
            factors.append(np.array(z))
            return invert(z, **kwargs)

        def spy_multiply(alpha, a, b, **kwargs):
            before = b.copy()
            solves.append((before, multiply(alpha, a, b, **kwargs).copy()))
            return b

        monkeypatch.setattr(sstep.blockqr, "dtrtri", spy_invert)
        monkeypatch.setattr(sstep.blockqr, "dtrmm", spy_multiply)
        out = bcgs2_partial_cholqr(q, v, 1e7)
        assert (out.p, out.stopped_by) == (s, "none")
        z = factors[0]
        cond = np.linalg.cond(z)
        assert 5e6 < cond < 1e7
        before, got = solves[0]
        want = sla.blas.dtrsm(1.0, z, before, side=1)
        err = np.linalg.norm(got - want, 2) / np.linalg.norm(want, 2)
        assert err <= cond * np.finfo(float).eps
        npt.assert_allclose(v @ v.T, np.eye(s), rtol=0, atol=1e-14)
        npt.assert_allclose(q @ v.T, np.zeros((i, s)), rtol=0, atol=1e-14)

    def test_condition_stop_is_visible_in_trace(self):
        rng = np.random.default_rng(47)
        n = 50
        u = ortho_basis(rng, n, 4)
        v = np.diag([1.0, 1e-2, 1e-5, 1e-12]) @ u
        out = bcgs2_partial_cholqr(np.zeros((0, n)), v, 1e7)
        assert out.stopped_by == "condition"
        assert out.p < 4
        assert len(out.cond_trace) == out.p + 1
        assert out.cond_trace[-1] > 1e7
        assert np.all(out.cond_trace[:-1] <= 1e7)

    def test_zero_block_breaks_down(self):
        with pytest.raises(BreakdownError):
            bcgs2_partial_cholqr(np.zeros((0, 10)), np.zeros((3, 10)), 1e7)

    def test_candidates_equal_to_basis_columns_break_down(self):
        q = np.eye(20)[:4]  # exactly orthonormal, so projection cancels exactly
        v = q[:2].copy()
        with pytest.raises(BreakdownError):
            bcgs2_partial_cholqr(q, v, 1e7)

    def test_roundoff_candidate_ends_prefix_as_pivot_stop(self):
        # the third candidate lies in span(q) up to roundoff: the first two
        # are kept, the stop is recorded like a pivot stop, and it costs
        # no extra reduction
        rng = np.random.default_rng(48)
        n = 40
        q = ortho_basis(rng, n, 3)
        v = rng.standard_normal((4, n))
        v[2] = rng.standard_normal(3) @ q
        # the same head with other dropped rows: a product of the same shape,
        # so the dropped rows may not change a bit of what is kept
        other = rng.standard_normal((4, n))
        other[:2] = v[:2]
        other[2] = rng.standard_normal(3) @ q
        counter = ReductionCounter()
        out = bcgs2_partial_cholqr(q, v, 1e7, counter=counter)
        assert out.p == 2 and out.stopped_by == "pivot"
        assert len(out.cond_trace) == 2
        assert counter.phase_reductions("ortho") == 4
        ref = bcgs2_partial_cholqr(q, other, 1e7)
        assert (ref.p, ref.stopped_by) == (2, "pivot")
        npt.assert_array_equal(v[:2], other[:2])
        npt.assert_array_equal(out.r_hat, ref.r_hat)

    def test_first_candidate_in_span_breaks_down_after_first_pass(self):
        rng = np.random.default_rng(49)
        q = ortho_basis(rng, 40, 3)
        v = np.vstack([rng.standard_normal(3) @ q, rng.standard_normal(40)])
        counter = ReductionCounter()
        with pytest.raises(BreakdownError, match="span"):
            bcgs2_partial_cholqr(q, v, 1e7, counter=counter)
        assert counter.phase_reductions("ortho") == 2

    def test_second_pass_cut_is_reported(self, monkeypatch):
        # the first pass keeps all four candidates, the second only two: the
        # stop is the second pass's, not the first pass's 'none'
        factor, kept = sstep.blockqr.partial_cholesky, []

        def second_keeps_two(g, cond_limit):
            out = factor(g, cond_limit)
            kept.append(out.p)
            if len(kept) == 2:
                return PartialCholeskyResult(2, out.r[:2, :2], out.cond_trace[:2], "condition")
            return out

        monkeypatch.setattr(sstep.blockqr, "partial_cholesky", second_keeps_two)
        rng = np.random.default_rng(50)
        q = ortho_basis(rng, 40, 3)
        v = rng.standard_normal((4, 40))
        out = bcgs2_partial_cholqr(q, v, 1e7)
        assert kept == [4, 4]
        assert (out.p, out.stopped_by) == (2, "second pass")
        assert out.r_hat.shape == (5, 3)
        ext = np.vstack([q, v[:2]])
        npt.assert_allclose(ext @ ext.T, np.eye(5), atol=1e-13)


def tiles_of(monkeypatch, i, width):
    """Set the tile budget so that a basis of i rows is summed width columns at a time."""
    monkeypatch.setattr(sstep.blockqr, "TILE_BYTES", 8 * max(i, 1) * width)


class TestTiledProjections:
    @pytest.mark.parametrize("n,i,width", [(45, 1, 45), (45, 1, 44), (45, 7, 6),
                                           (45, 7, 1), (45, 0, 4), (50, 3, 7)])
    def test_project_sums_tiles_to_the_product(self, monkeypatch, n, i, width):
        rng = np.random.default_rng(50)
        q = rng.standard_normal((i, n))
        rows = rng.standard_normal((5, n))
        tiles_of(monkeypatch, i, width)
        c = project(q, rows)
        assert c.shape == (i, 5)
        npt.assert_allclose(c, q @ rows.T, rtol=0, atol=1e-13)
        if width >= n:
            # one tile is the single product
            npt.assert_array_equal(c, q @ rows.T)

    @pytest.mark.parametrize("i", [0, 1, 7])
    @pytest.mark.parametrize("s", [1, 5])
    @pytest.mark.parametrize("n", [40, 47])
    def test_many_tiles_match_one_product(self, monkeypatch, n, i, s):
        # tiles of 6 columns: several full tiles and a ragged last one
        rng = np.random.default_rng(51)
        q = ortho_basis(rng, n, i)
        v = rng.standard_normal((s, n))
        w = v.copy()
        whole = bcgs2_partial_cholqr(q, w, 1e7)
        tiles_of(monkeypatch, i, 6)
        counter = ReductionCounter()
        tiled = bcgs2_partial_cholqr(q, v, 1e7, counter=counter)
        assert counter.phase_reductions("ortho") == 4
        assert (tiled.p, tiled.stopped_by) == (whole.p, whole.stopped_by)
        npt.assert_allclose(v[: tiled.p], w[: whole.p], rtol=0, atol=1e-14)
        npt.assert_allclose(tiled.r_hat, whole.r_hat, rtol=0, atol=1e-14)
        npt.assert_allclose(tiled.cond_trace, whole.cond_trace, rtol=1e-14)

    @pytest.mark.parametrize("stop", ["test_roundoff_candidate_ends_prefix_as_pivot_stop",
                                      "test_first_candidate_in_span_breaks_down_after_first_pass"])
    def test_stops_hold_across_tiles(self, monkeypatch, stop):
        # both project n = 40 rows against i = 3 basis vectors: six tiles of
        # 6 columns and a ragged one of 4
        tiles_of(monkeypatch, 3, 6)
        getattr(TestIllConditioned(), stop)()


class TestInPlaceUpdates:
    def test_update_accumulates_into_the_rows(self, monkeypatch):
        # one GEMM whose output is the candidate rows themselves
        rng = np.random.default_rng(53)
        q = ortho_basis(rng, 45, 4)
        w = rng.standard_normal((4, 5))
        rows = rng.standard_normal((5, 45))
        want = rows - w.T @ q
        outputs, gemm = [], sstep.blockqr.dgemm

        def spy(*args, **kwargs):
            out = gemm(*args, **kwargs)
            outputs.append(out)
            return out

        monkeypatch.setattr(sstep.blockqr, "dgemm", spy)
        subtract_projection(rows, w, q)
        assert len(outputs) == 1 and np.shares_memory(outputs[0], rows)
        npt.assert_allclose(rows, want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("i,s", [(0, 5), (4, 0), (0, 0)])
    def test_no_basis_or_no_rows_is_a_no_op(self, monkeypatch, i, s):
        # i = 0 right at the start of a cycle, and no rows where an overflow
        # stop dropped the whole block; BLAS is not called for either
        monkeypatch.setattr(sstep.blockqr, "dgemm", None)
        rng = np.random.default_rng(56)
        q = rng.standard_normal((i, 45))
        rows = rng.standard_normal((s, 45))
        before = rows.copy()
        subtract_projection(rows, rng.standard_normal((i, s)), q)
        npt.assert_array_equal(rows, before)

    def test_update_holds_one_tile_of_scratch_memory(self):
        # right after a restart the basis has one row, so a tile sized by the
        # basis rows would cover the whole length and each update w.T @ q
        # would build a copy of the candidate block; sized by the candidate
        # rows, a tile is TILE_BYTES (512 KB) against the 32 MB block
        rng = np.random.default_rng(54)
        q = ortho_basis(rng, 40_000, 1)
        v = rng.standard_normal((100, 40_000))
        tracemalloc.start()
        try:
            out = bcgs2_partial_cholqr(q, v, 1e7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.p == 100
        assert peak < v.nbytes / 2


class TestOverflowStop:
    def test_limit(self):
        assert OVERFLOW_LIMIT == pytest.approx(1e10 / np.sqrt(np.finfo(float).eps))

    @pytest.mark.parametrize("bad", ["above", "inf", "nan"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_candidate_ends_prefix(self, monkeypatch, bad, k):
        # candidate k and every one after it are dropped before any
        # arithmetic touches them: the kept rows are bitwise those of a
        # call on the first k candidates, at no extra reduction
        monkeypatch.setattr(sstep.blockqr, "OVERFLOW_LIMIT", 1e3)
        rng = np.random.default_rng(52)
        n = 40
        q = ortho_basis(rng, n, 3)
        rows = rng.standard_normal((5, n))
        rows[k] *= {"above": 1e3, "inf": np.inf, "nan": np.nan}[bad]
        rows[k + 1 :] = np.inf
        head = rows[:k].copy()
        counter = ReductionCounter()
        out = bcgs2_partial_cholqr(q, rows, 1e7, counter=counter)
        assert out.p <= k and out.stopped_by == "overflow"
        assert counter.phase_reductions("ortho") == 4
        full = bcgs2_partial_cholqr(q, head, 1e7)
        assert (full.p, full.stopped_by) == (out.p, "none")
        npt.assert_array_equal(rows[: out.p], head[: out.p])
        npt.assert_array_equal(out.r_hat, full.r_hat)
        npt.assert_array_equal(out.cond_trace, full.cond_trace)

    def test_first_candidate_overflowing_breaks_down_after_first_pass(self):
        rng = np.random.default_rng(53)
        v = rng.standard_normal((3, 30))
        v[0] *= 1e20
        counter = ReductionCounter()
        with pytest.raises(BreakdownError, match="first candidate overflows"):
            bcgs2_partial_cholqr(ortho_basis(rng, 30, 2), v, 1e7, counter=counter)
        assert counter.phase_reductions("ortho") == 2

    @pytest.mark.parametrize("kind", ["monomial", "newton"])
    def test_overflowing_block_warns_nowhere(self, kind):
        # norms about 1e9, 1e18, ...: the second vector is past the limit and
        # the recurrence runs on into inf, all without a warning; a monomial
        # step is the operator apply alone, so its rows stay inf, while a
        # shifted step subtracts inf from inf and runs on into nan
        n, s = 20, 40
        rows = np.empty((s + 1, n))
        rows[0] = 1.0 / np.sqrt(n)
        shifts = RitzSet(np.ones(s)) if kind == "newton" else None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            blk = matrix_powers(lambda v: 1e9 * v, rows, build_change_of_basis(kind, s, shifts))
            assert np.isinf(rows).any() and np.isnan(rows).any() == (kind == "newton")
            out = bcgs2_partial_cholqr(np.zeros((0, n)), blk.v, 1e7)
        assert (out.p, out.stopped_by) == (1, "overflow")
        if kind == "monomial":  # 1e9 v normalized is v, bit for bit
            npt.assert_array_equal(rows[1], rows[0])
        else:  # (1e9 v - v) / scale normalized rounds on the way
            npt.assert_allclose(rows[1], rows[0], rtol=1e-15)

    def test_results_land_in_v(self, monkeypatch):
        # the candidate rows, stored after the basis rows as the solver
        # stores them, are solved in place by both triangular solves
        rng = np.random.default_rng(54)
        n, i, s = 50, 4, 5
        rows = np.empty((i + s, n))
        rows[:i], rows[i:] = ortho_basis(rng, n, i), rng.standard_normal((s, n))
        q, v = rows[:i], rows[i:]
        cand = v.copy()
        in_place, multiply = [], sstep.blockqr.dtrmm

        def spy(alpha, a, b, **kwargs):
            x = multiply(alpha, a, b, **kwargs)
            in_place.append(np.shares_memory(x, b))
            return x

        monkeypatch.setattr(sstep.blockqr, "dtrmm", spy)
        out = bcgs2_partial_cholqr(q, v, 1e7)
        assert out.p == s
        assert in_place == [True] * 2
        npt.assert_allclose(v @ v.T, np.eye(s), atol=1e-14)
        npt.assert_allclose(q @ v.T, np.zeros((i, s)), atol=1e-14)
        npt.assert_allclose(out.r_hat[:, 1:].T @ rows, cand, atol=1e-12)

    def test_candidates_must_be_a_float64_array(self):
        with pytest.raises(ValueError, match="float64"):
            bcgs2_partial_cholqr(np.zeros((0, 5)), np.ones((2, 5), dtype=np.float32), 1e7)

    @pytest.mark.parametrize("layout", ["columns", "strided", "read-only"])
    def test_candidates_the_rows_cannot_land_in_are_refused(self, layout):
        # the new rows overwrite v, so a v they cannot be solved into in
        # place is refused before any work, with v left as it was
        rng = np.random.default_rng(55)
        q = ortho_basis(rng, 30, 2)
        v = {"columns": np.asfortranarray(rng.standard_normal((3, 30))),
             "strided": rng.standard_normal((6, 30))[::2],
             "read-only": rng.standard_normal((3, 30))}[layout]
        v.flags.writeable = layout != "read-only"
        before = v.copy()
        counter = ReductionCounter()
        with pytest.raises(ValueError, match="C-contiguous float64"):
            bcgs2_partial_cholqr(q, v, 1e7, counter=counter)
        npt.assert_array_equal(v, before)
        assert counter.phase_reductions("ortho") == 0


class TestGuards:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="row length"):
            bcgs2_partial_cholqr(np.zeros((2, 5)), np.zeros((2, 6)), 1e7)

    def test_empty_candidates(self):
        with pytest.raises(ValueError, match="empty"):
            bcgs2_partial_cholqr(np.zeros((2, 5)), np.zeros((0, 5)), 1e7)
