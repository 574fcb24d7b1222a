"""Shift ordering, recurrence coefficients, matrix-powers kernel."""

import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from sstep import (
    RitzSet,
    SparseMatrix,
    build_change_of_basis,
    gen_diagonal,
    leja_order,
    matrix_powers,
    newton_scalings,
)
from sstep.basis import writes_into


def greedy_product_order(values):
    """Independent oracle: the documented greedy rule with direct products."""
    vals = list(np.asarray(values, dtype=np.complex128))
    placed = []
    remaining = list(range(len(vals)))
    while remaining:
        def key(r):
            prod = 1.0
            for q in placed:
                prod *= abs(vals[r] - vals[q])
            start = abs(vals[r]) if not placed else 1.0
            return (start * prod, vals[r].real, vals[r].imag)
        best = max(remaining, key=key)
        placed.append(best)
        remaining.remove(best)
        if vals[best].imag != 0.0 and remaining:
            partner = [r for r in remaining if vals[r] == np.conj(vals[best])]
            placed.append(partner[0])
            remaining.remove(partner[0])
    return np.array([vals[q] for q in placed])


def numpy_scalar_leja_order(values):
    """The ordering loop as it ran on numpy scalars, kept as the reference for ties."""
    vals = np.asarray(values, dtype=np.complex128).ravel()
    n = len(vals)
    re, im = vals.real, vals.imag
    acc = np.zeros(n)
    remaining = list(range(n))
    order = []

    def place(idx):
        order.append(idx)
        remaining.remove(idx)
        for r in remaining:
            d = abs(vals[r] - vals[idx])
            acc[r] = -math.inf if d == 0.0 else acc[r] + math.log(d)

    while remaining:
        if order:
            best = max(remaining, key=lambda r: (acc[r], re[r], im[r]))
        else:
            best = max(remaining, key=lambda r: (abs(vals[r]), re[r], im[r]))
        place(best)
        if im[best] != 0.0 and remaining:
            partner = [r for r in remaining if vals[r] == np.conj(vals[best])]
            place(partner[0])
    return vals[np.asarray(order)]


def random_shift_set(rng):
    """Reals and conjugate pairs on a coarse grid, so ties and duplicates are common."""
    grid = rng.integers(1, 6)
    nreal, npairs = rng.integers(0, 30), rng.integers(0, 15)
    reals = rng.integers(-grid, grid + 1, nreal) / grid
    re = rng.integers(-grid, grid + 1, npairs) / grid
    im = rng.integers(1, grid + 1, npairs) / grid
    vals = np.concatenate([reals, re + 1j * im, re - 1j * im])
    if len(vals) == 0:
        vals = np.array([rng.standard_normal()])
    return rng.permutation(vals)


class TestLejaOrder:
    def test_integer_hand_case(self):
        # 5 first (largest), then 1 (distance 4), then 3 (product 4),
        # then the product tie between 4 and 2 goes to the larger value
        npt.assert_array_equal(leja_order([1, 2, 3, 4, 5]), [5, 1, 3, 4, 2])

    def test_matches_direct_product_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            vals = rng.uniform(-5, 5, 12)
            npt.assert_array_equal(leja_order(vals), greedy_product_order(vals))

    def test_same_order_as_the_numpy_scalar_loop(self):
        # 300 seeded sets with ties, duplicates and conjugate pairs: the
        # loop on Python scalars picks the same value at every position
        rng = np.random.default_rng(77)
        for _ in range(300):
            vals = random_shift_set(rng)
            npt.assert_array_equal(leja_order(vals), numpy_scalar_leja_order(vals))

    def test_magnitude_tie_takes_larger_real(self):
        npt.assert_array_equal(leja_order([-2.0, 2.0]), [2.0, -2.0])

    def test_conjugate_pairs_stay_adjacent(self):
        got = leja_order([1 + 1j, -1 - 1j, -1 + 1j, 1 - 1j])
        npt.assert_array_equal(got, [1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])

    def test_duplicates_order_last(self):
        npt.assert_array_equal(leja_order([3.0, 3.0, 1.0]), [3.0, 1.0, 3.0])

    def test_missing_partner_raises(self):
        with pytest.raises(ValueError, match="conjugate partner"):
            leja_order([1 + 1j, 2.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            leja_order([])


def conjugate_spectrum(rng, npairs, nreal):
    """Conjugate pairs, reals and duplicates of both, in Leja order."""
    re, im = rng.uniform(-2, 8, npairs), rng.uniform(0.1, 3, npairs)
    re, im = np.append(re, re[:2]), np.append(im, im[:2])
    reals = rng.uniform(-2, 8, nreal)
    return leja_order(np.concatenate([re + 1j * im, re - 1j * im, reals, reals[:2]]))


class TestRoles:
    """Each position's part in a conjugate pair, read from the coupling that alone marks it."""

    @staticmethod
    def coupling(values, s=None):
        rs = RitzSet(np.asarray(values, dtype=complex))
        return build_change_of_basis("newton", s or len(rs), rs).coupling

    def test_real_values_have_no_coupling(self):
        npt.assert_array_equal(self.coupling([1.0, 2.0]), [0.0, 0.0])

    def test_pair_tagging(self):
        rs = RitzSet.from_values([2.0, 1 + 1j, 1 - 1j])
        cob = build_change_of_basis("newton", 3, rs)
        npt.assert_array_equal(cob.coupling, [0.0, 0.0, 1.0])
        npt.assert_array_equal(cob.shift, [2.0, 1.0, 1.0])

    def test_trailing_cut_pair_tolerated(self):
        npt.assert_array_equal(self.coupling([3.0, 1 + 2j]), [0.0, 0.0])
        npt.assert_array_equal(self.coupling([3.0, 1 + 2j, 1 - 2j], s=2), [0.0, 0.0])

    def test_interior_unpaired_raises(self):
        with pytest.raises(ValueError, match="no adjacent conjugate"):
            self.coupling([1 + 1j, 5.0])
        with pytest.raises(ValueError, match="no adjacent conjugate"):
            self.coupling([1 + 1j, 1 + 1j, 5.0])

    def test_cycled_repeats_with_consistent_roles(self):
        rs = RitzSet.from_values([1 + 1j, 1 - 1j])
        ext = rs.cycled(5)
        npt.assert_array_equal(ext.values, [1 + 1j, 1 - 1j, 1 + 1j, 1 - 1j, 1 + 1j])
        assert rs.cycled(2) is rs
        assert len(ext) == 5
        cob = build_change_of_basis("scaled-newton", 5, ext)
        c = 1.0 / cob.scale[0]
        npt.assert_array_equal(cob.coupling, [0.0, c, 0.0, c, 0.0])


class TestNewtonScalings:
    def test_hand_case(self):
        gam, mean, floor, n_floored = newton_scalings([1.0, 3.0])
        assert mean == 2.0 and n_floored == 0
        npt.assert_array_equal(gam, [1.0, 1.0])
        assert floor == np.finfo(np.float64).eps * 3.0

    def test_clustered_values_hit_floor(self):
        gam, mean, floor, n_floored = newton_scalings([2.0, 2.0])
        assert n_floored == 2
        npt.assert_array_equal(gam, [floor, floor])

    def test_all_zero_raises(self):
        with pytest.raises(ValueError, match="zero"):
            newton_scalings([0.0, 0.0])


class TestChangeOfBasis:
    def test_monomial_dense_structure(self):
        b = build_change_of_basis("monomial", 3).dense()
        npt.assert_array_equal(b, [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_newton_uses_real_shifts_unit_scale(self):
        rs = RitzSet.from_values([4.0, 1.0, 2.0])
        cob = build_change_of_basis("newton", 3, rs)
        npt.assert_array_equal(cob.shift, rs.values.real)
        npt.assert_array_equal(cob.scale, [1.0, 1.0, 1.0])

    def test_scaled_newton_coupling(self):
        rs = RitzSet.from_values([5.0, 1 + 2j, 1 - 2j])
        cob = build_change_of_basis("scaled-newton", 3, rs)
        gam = newton_scalings(rs.values)[0]
        npt.assert_array_equal(cob.scale, gam)
        assert cob.coupling[2] == pytest.approx(4.0 / gam[1])
        assert cob.coupling[0] == cob.coupling[1] == 0.0
        d = cob.dense()
        assert d[1, 2] == pytest.approx(-4.0 / gam[1])

    def test_truncation_can_cut_a_pair(self):
        rs = RitzSet.from_values([5.0, 1 + 2j, 1 - 2j])
        cob = build_change_of_basis("scaled-newton", 2, rs)
        npt.assert_array_equal(cob.shift, [5.0, 1.0])
        npt.assert_array_equal(cob.coupling, [0.0, 0.0])
        assert not np.signbit(cob.dense()).any()

    @staticmethod
    def dense_by_rows(cob):
        """Reference: B filled one step at a time, the coupling above a closing step."""
        b = np.zeros((cob.s + 1, cob.s))
        for k in range(cob.s):
            b[k, k] = cob.shift[k]
            b[k + 1, k] = cob.scale[k]
            if cob.coupling[k] != 0.0:
                b[k - 1, k] = -cob.coupling[k]
        return b

    @pytest.mark.parametrize("kind", ["newton", "scaled-newton"])
    def test_dense_matches_row_loop_bitwise(self, kind):
        rng = np.random.default_rng(17)
        for npairs, nreal in [(0, 5), (1, 0), (3, 4), (6, 1), (9, 7)]:
            rs = RitzSet(conjugate_spectrum(rng, npairs, nreal))
            for s in range(1, len(rs) + 4):
                cob = build_change_of_basis(kind, s, rs.cycled(s))
                got, want = cob.dense(), self.dense_by_rows(cob)
                npt.assert_array_equal(got, want)
                npt.assert_array_equal(np.signbit(got), np.signbit(want))

    def test_input_guards(self):
        rs = RitzSet.from_values([1.0, 2.0])
        with pytest.raises(ValueError, match="unknown"):
            build_change_of_basis("chebyshev", 2, rs)
        with pytest.raises(ValueError, match="needs Ritz"):
            build_change_of_basis("newton", 2)
        with pytest.raises(ValueError, match="at least 3"):
            build_change_of_basis("newton", 3, rs)
        with pytest.raises(ValueError):
            build_change_of_basis("monomial", 0)

    def test_clustered_scaled_newton_warns(self):
        rs = RitzSet.from_values([5.0, 5.0])
        with pytest.warns(UserWarning, match="floor"):
            build_change_of_basis("scaled-newton", 2, rs)


def generate(op, seed, cob):
    """The kernel's block from seed, generated into rows of its own."""
    rows = np.empty((cob.s + 1, len(seed)))
    rows[0] = seed
    return matrix_powers(op, rows, cob)


class TestMatrixPowers:
    def setup_method(self):
        rng = np.random.default_rng(33)
        self.a = rng.standard_normal((20, 20)) * 0.4 + np.diag(rng.uniform(1, 2, 20))
        self.seed = rng.standard_normal(20)
        self.seed /= np.linalg.norm(self.seed)

    def op(self, v):
        return self.a @ v

    @pytest.mark.parametrize("kind,shifts", [
        ("monomial", None),
        ("newton", [1.8, 1.2, 1.5, 1.1]),
        ("scaled-newton", [1.8, 1.2, 1.5, 1.1]),
        ("scaled-newton", [2.0, 1.3 + 0.4j, 1.3 - 0.4j, 1.0]),
    ])
    def test_generating_identity(self, kind, shifts):
        # the defining relation: A V_{0:s-1} = V_{0:s} B for the dense B
        rs = RitzSet.from_values(shifts) if shifts else None
        cob = build_change_of_basis(kind, 4, rs)
        blk = generate(self.op, self.seed, cob)
        assert blk.ncols == 4
        vfull = np.vstack([self.seed, blk.v])  # one vector per row
        lhs = vfull[:4] @ self.a.T
        rhs = cob.dense().T @ vfull
        scale = max(np.linalg.norm(vfull[j]) for j in range(5))
        npt.assert_allclose(lhs, rhs, atol=1e-13 * np.linalg.norm(self.a) * scale)

    def test_matches_explicit_recurrence_bitwise(self):
        rs = RitzSet.from_values([1.8, 1.2 + 0.3j, 1.2 - 0.3j, 1.5])
        cob = build_change_of_basis("scaled-newton", 4, rs)
        assert np.count_nonzero(cob.coupling) == 1
        blk = generate(self.op, self.seed, cob)
        prev2, prev = np.zeros_like(self.seed), self.seed
        for k in range(4):
            w = (self.op(prev) - cob.shift[k] * prev + cob.coupling[k] * prev2) / cob.scale[k]
            npt.assert_array_equal(blk.v[k], w)
            prev2, prev = prev, w

    def test_zero_shift_unit_scale_equals_monomial_bitwise(self):
        rs = RitzSet(np.zeros(3, dtype=complex))
        newton = build_change_of_basis("newton", 3, rs)
        mono = build_change_of_basis("monomial", 3)
        npt.assert_array_equal(newton.shift, mono.shift[:3])
        a = generate(self.op, self.seed, newton)
        b = generate(self.op, self.seed, mono)
        npt.assert_array_equal(a.v, b.v)

    def test_power_of_two_scaling_is_exact(self):
        manual = build_change_of_basis("monomial", 3)
        manual.scale[:] = 2.0
        blk = generate(self.op, self.seed, manual)
        ref = generate(self.op, self.seed, build_change_of_basis("monomial", 3))
        npt.assert_array_equal(blk.v * [[2.0], [4.0], [8.0]], ref.v)

    def test_fills_the_rows_after_the_seed_in_place(self):
        cob = build_change_of_basis("monomial", 3)
        rows = np.empty((4, 20))
        rows[0] = self.seed
        blk = matrix_powers(self.op, rows, cob)
        assert blk.ncols == 3 and np.shares_memory(blk.v, rows)
        # the rows themselves, as the block QR takes them
        assert blk.v.shape == (3, 20) and blk.v.flags.c_contiguous
        npt.assert_array_equal(rows[0], self.seed)
        npt.assert_array_equal(blk.v, rows[1:])
        npt.assert_array_equal(rows[3], self.a @ (self.a @ (self.a @ self.seed)))

    @pytest.mark.parametrize("kind,shifts", [
        ("monomial", None),
        ("newton", [1.8, 1.2, 1.5, 1.1]),
        ("scaled-newton", [2.0, 1.3 + 0.4j, 1.3 - 0.4j, 1.0]),
    ])
    def test_operator_writing_into_the_row_gives_the_same_bits(self, kind, shifts):
        a = SparseMatrix.from_dense(self.a)
        cob = build_change_of_basis(kind, 4, RitzSet.from_values(shifts) if shifts else None)
        into = generate(a.matvec, self.seed, cob)
        fresh = generate(lambda v: a.matvec(v), self.seed, cob)
        assert into.v.tobytes() == fresh.v.tobytes()

    def test_monomial_block_allocates_no_vector_per_step(self):
        # the operator writes into each step's row, and a step with shift 0,
        # coupling 0 and scale 1 runs no pass of its own
        n, s = 100_000, 20
        a = gen_diagonal(n, 0.5, 1.5)
        rows = np.empty((s + 1, n))
        rows[0] = 1.0 / math.sqrt(n)
        cob = build_change_of_basis("monomial", s)
        matrix_powers(a.matvec, rows.copy(), cob)  # warm-up
        tracemalloc.start()
        try:
            matrix_powers(a.matvec, rows, cob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * 8 / 10
        w, d = rows[0], a.diagonal()
        for _ in range(s):
            w = d * w
        npt.assert_array_equal(rows[s], w)

    @pytest.mark.parametrize("nrows", [3, 5])
    def test_rows_must_hold_seed_and_block(self, nrows):
        with pytest.raises(ValueError, match="seed and 3 vectors"):
            matrix_powers(self.op, np.zeros((nrows, 20)), build_change_of_basis("monomial", 3))


class TestWritesInto:
    def test_an_operator_with_out_writes_into_the_row(self):
        calls = []

        def op(v, out=None):
            calls.append(out)
            return np.multiply(v, 2.0, out=out)

        out = np.empty(3)
        assert writes_into(op)(np.arange(3.0), out) is out
        npt.assert_array_equal(out, [0.0, 2.0, 4.0])
        assert calls[0] is out

    @pytest.mark.parametrize("op", [
        lambda v: 2.0 * v,
        lambda v, **kwargs: 2.0 * v,  # takes out, but hands back a new vector
        lambda v, /: 2.0 * v,
    ], ids=["plain", "kwargs-new-vector", "positional"])
    def test_any_other_operator_is_copied_into_the_row(self, op):
        out = np.empty(3)
        assert writes_into(op)(np.arange(3.0), out) is out
        npt.assert_array_equal(out, [0.0, 2.0, 4.0])
