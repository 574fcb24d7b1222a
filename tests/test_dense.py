"""Condition estimation, partial Cholesky, Givens least squares."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from sstep import (
    BreakdownError,
    ConditionEstimator,
    GivensLs,
    hessenberg_eigenvalues,
    partial_cholesky,
    svd_condition,
)


def random_triangular(rng, jmax, kappa_max_exp):
    """Upper triangular factor with exactly prescribed extreme singular values."""
    j = int(rng.integers(2, jmax + 1))
    kexp = rng.uniform(0.0, kappa_max_exp)
    sig = 10.0 ** (-np.sort(rng.uniform(0.0, kexp, j)))
    sig[0] = 1.0
    sig[-1] = 10.0 ** (-kexp)
    u, _ = np.linalg.qr(rng.standard_normal((j, j)))
    v, _ = np.linalg.qr(rng.standard_normal((j, j)))
    return np.linalg.qr((u * sig) @ v.T)[1]


class TestSvdCondition:
    def test_hand_value(self):
        # G = R^T R = [[1, 1], [1, 2]] has eigenvalues (3 +- sqrt 5) / 2,
        # so kappa(R)^2 = (3 + sqrt 5) / (3 - sqrt 5) and kappa = (3 + sqrt 5) / 2
        got = svd_condition([[1.0, 1.0], [0.0, 1.0]])
        assert got == pytest.approx((3.0 + math.sqrt(5.0)) / 2.0, rel=1e-14)

    def test_singular_is_inf(self):
        assert svd_condition([[1.0, 0.0], [0.0, 0.0]]) == math.inf

    def test_identity(self):
        assert svd_condition(np.eye(4)) == pytest.approx(1.0, rel=1e-14)


class TestConditionEstimator:
    def test_exact_on_diagonal(self):
        est = ConditionEstimator()
        for d in (2.0, 0.5, 8.0, 0.25):
            est.update(np.zeros(est.ncols), d)
        # with zero coupling both recurrences reduce to exact max / min
        assert est.estimate == pytest.approx(8.0 / 0.25, rel=1e-15)

    def test_first_column_estimate_is_one(self):
        est = ConditionEstimator()
        assert est.update([], -3.0) == pytest.approx(1.0)

    def test_never_overestimates_and_tracks_within_factor_10(self):
        for t in range(100):
            rng = np.random.default_rng(1000 + t)
            r = random_triangular(rng, 20, 8.0)
            est = ConditionEstimator()
            for c in range(r.shape[0]):
                k = est.update(r[:c, c], r[c, c])
            true = svd_condition(r)
            assert k <= true * (1.0 + 1e-9)
            assert true / k <= 10.0

    def test_rejects_zero_or_nonfinite_diagonal(self):
        est = ConditionEstimator()
        with pytest.raises(ValueError, match="nonzero finite"):
            est.update([], 0.0)
        with pytest.raises(ValueError, match="nonzero finite"):
            est.update([], math.nan)

    def test_rejects_wrong_shapes(self):
        est = ConditionEstimator()
        with pytest.raises(ValueError, match="empty"):
            est.update([1.0], 2.0)
        est.update([], 2.0)
        with pytest.raises(ValueError, match="expected 1"):
            est.update([1.0, 2.0], 2.0)
        with pytest.raises(ValueError, match="no columns"):
            ConditionEstimator().estimate


class TestPartialCholesky:
    def spd(self, rng, s):
        b = rng.standard_normal((s + 4, s))
        return b.T @ b + s * np.eye(s)

    def test_full_acceptance_matches_lapack(self):
        rng = np.random.default_rng(11)
        g = self.spd(rng, 7)
        out = partial_cholesky(g, 1e7)
        assert out.p == 7 and out.stopped_by == "none"
        npt.assert_allclose(out.r, np.linalg.cholesky(g).T, rtol=1e-10, atol=1e-12)
        assert len(out.cond_trace) == 7

    def test_condition_stop_keeps_rejected_value(self):
        g = np.diag([1.0, 1e-6, 1e-18])
        for flag in (True, False):
            out = partial_cholesky(g, 1e7, use_estimator=flag)
            assert out.p == 2 and out.stopped_by == "condition"
            assert len(out.cond_trace) == 3
            assert out.cond_trace[-1] > 1e7 >= out.cond_trace[-2]
            npt.assert_allclose(out.r, np.diag([1.0, 1e-3]), rtol=1e-15)

    def test_pivot_stop_exact_rank_deficiency(self):
        # Gram matrix of [e0, e1, e0 + e1]: third pivot is exactly 0
        g = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0]])
        out = partial_cholesky(g, 1e7)
        assert out.p == 2 and out.stopped_by == "pivot"
        assert len(out.cond_trace) == 2
        npt.assert_array_equal(out.r, np.eye(2))

    def test_no_columns_accepted_raises(self):
        with pytest.raises(BreakdownError, match="not positive"):
            partial_cholesky([[0.0]], 1e7)
        with pytest.raises(BreakdownError, match="not positive"):
            partial_cholesky([[-2.0]], 1e7)
        with pytest.raises(BreakdownError, match="condition limit"):
            partial_cholesky([[4.0]], 0.5)

    def test_prefix_is_bitwise_stable(self):
        rng = np.random.default_rng(12)
        g = self.spd(rng, 9)
        full = partial_cholesky(g, 1e12)
        head = partial_cholesky(g[:5, :5].copy(), 1e12)
        assert head.p == 5
        npt.assert_array_equal(full.r[:5, :5], head.r)
        npt.assert_array_equal(full.cond_trace[:5], head.cond_trace)

    def test_estimator_and_svd_agree_on_decisive_gap(self):
        g = np.diag([1.0, 1e-2, 1e-16])
        a = partial_cholesky(g, 1e7, use_estimator=True)
        b = partial_cholesky(g, 1e7, use_estimator=False)
        assert (a.p, a.stopped_by) == (b.p, b.stopped_by) == (2, "condition")

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            partial_cholesky([[1.0, 2.0], [0.0, 1.0]], 1e7)

    def test_rejects_empty_or_nonsquare(self):
        with pytest.raises(ValueError):
            partial_cholesky(np.zeros((0, 0)), 1e7)
        with pytest.raises(ValueError):
            partial_cholesky(np.zeros((2, 3)), 1e7)


def random_hessenberg(rng, k):
    h = np.zeros((k + 1, k))
    for j in range(k):
        h[: j + 1, j] = rng.standard_normal(j + 1)
        h[j + 1, j] = rng.random() + 0.5
    return h


class TestGivensLs:
    def test_matches_lstsq_oracle(self):
        rng = np.random.default_rng(21)
        k, beta = 9, 3.5
        h = random_hessenberg(rng, k)
        ls = GivensLs(k, beta)
        for j in range(k):
            est = float(ls.append(h[: j + 2, j])[0])
        rhs = np.zeros(k + 1)
        rhs[0] = beta
        y_ref, *_ = np.linalg.lstsq(h, rhs, rcond=None)
        npt.assert_allclose(ls.solve(), y_ref, rtol=1e-10, atol=1e-12)
        assert est == pytest.approx(np.linalg.norm(rhs - h @ y_ref), rel=1e-10)
        assert ls.residual_estimate == pytest.approx(est)

    def test_block_append_is_bitwise_columnwise(self):
        rng = np.random.default_rng(22)
        k = 8
        h = random_hessenberg(rng, k)
        one = GivensLs(k, 1.0)
        for j in range(k):
            one.append(h[: j + 2, j])
        blk = GivensLs(k, 1.0)
        ests = blk.append(h[:4, :3])
        ests = np.concatenate([ests, blk.append(h[: k + 1, 3:])])
        npt.assert_array_equal(one._r, blk._r)
        npt.assert_array_equal(one._g, blk._g)
        npt.assert_array_equal(one.solve(), blk.solve())
        assert len(ests) == k

    def test_truncated_solve_matches_shorter_problem(self):
        rng = np.random.default_rng(23)
        k = 7
        h = random_hessenberg(rng, k)
        full = GivensLs(k, 2.0)
        full.append(h)
        short = GivensLs(k, 2.0)
        short.append(h[:5, :4])
        npt.assert_array_equal(full.solve(4), short.solve())

    def test_estimates_decrease_monotonically(self):
        rng = np.random.default_rng(24)
        h = random_hessenberg(rng, 12)
        ls = GivensLs(12, 1.0)
        ests = ls.append(h)
        assert np.all(np.diff(ests) <= 1e-15)

    def test_zero_column_breaks_down(self):
        ls = GivensLs(3, 1.0)
        with pytest.raises(BreakdownError, match="dependent"):
            ls.append(np.zeros(2))

    def test_dependent_column_up_to_roundoff_breaks_down(self):
        # the second column repeats the first up to one ulp and adds no new
        # direction; the state keeps the first column only
        ls = GivensLs(3, 1.0)
        ls.append(np.array([1.0, 2.0]))
        with pytest.raises(BreakdownError, match="dependent"):
            ls.append(np.array([0.5, np.nextafter(1.0, 2.0), 0.0]))
        assert ls.ncols == 1
        assert ls.residual_estimate == pytest.approx(2.0 / np.sqrt(5.0))

    def test_guards(self):
        ls = GivensLs(2, 1.0)
        with pytest.raises(ValueError, match="maximum column"):
            ls.append(np.zeros((4, 3)))
        with pytest.raises(ValueError, match="expected 2 rows"):
            ls.append(np.zeros(3))
        with pytest.raises(ValueError, match="ncols"):
            ls.solve()
        with pytest.raises(ValueError):
            GivensLs(0, 1.0)


def test_hessenberg_eigenvalues_triangular():
    t = np.triu(np.ones((4, 4))) + np.diag([3.0, 1.0, 4.0, 1.5])
    got = np.sort(hessenberg_eigenvalues(t).real)
    npt.assert_allclose(got, np.sort(np.diag(t)), rtol=1e-12)
    got2 = np.sort(hessenberg_eigenvalues(t, 2).real)
    npt.assert_allclose(got2, np.sort(np.diag(t)[:2]), rtol=1e-12)
