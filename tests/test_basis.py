"""Shift ordering, recurrence coefficients, matrix-powers kernel."""

import numpy as np
import numpy.testing as npt
import pytest

import sstep.basis
from sstep import (
    RitzSet,
    build_change_of_basis,
    leja_order,
    matrix_powers,
    newton_scalings,
)
from sstep.basis import _derive_roles


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


class TestRoles:
    def test_real_values_are_role_zero(self):
        npt.assert_array_equal(_derive_roles(np.array([1.0, 2.0], dtype=complex)), [0, 0])

    def test_pair_tagging(self):
        rs = RitzSet.from_values([2.0, 1 + 1j, 1 - 1j])
        npt.assert_array_equal(rs.pair_role, [0, 1, 2])

    def test_trailing_cut_pair_tolerated(self):
        roles = _derive_roles(np.array([3.0, 1 + 2j], dtype=complex))
        npt.assert_array_equal(roles, [0, 1])

    def test_interior_unpaired_raises(self):
        with pytest.raises(ValueError, match="no adjacent conjugate"):
            _derive_roles(np.array([1 + 1j, 5.0], dtype=complex))

    def test_cycled_repeats_with_consistent_roles(self):
        rs = RitzSet.from_values([1 + 1j, 1 - 1j])
        ext = rs.cycled(5)
        npt.assert_array_equal(ext.values, [1 + 1j, 1 - 1j, 1 + 1j, 1 - 1j, 1 + 1j])
        npt.assert_array_equal(ext.pair_role, [1, 2, 1, 2, 1])
        assert rs.cycled(2) is rs
        assert len(ext) == 5


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
        npt.assert_array_equal(cob.pair_role, [0, 1])

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
        blk = matrix_powers(self.op, self.seed, cob)
        assert blk.ncols == 4 and not blk.truncated
        vfull = np.column_stack([self.seed, blk.v])
        lhs = self.a @ vfull[:, :4]
        rhs = vfull @ cob.dense()
        scale = max(np.linalg.norm(vfull[:, j]) for j in range(5))
        npt.assert_allclose(lhs, rhs, atol=1e-13 * np.linalg.norm(self.a) * scale)

    def test_matches_explicit_recurrence_bitwise(self):
        rs = RitzSet.from_values([1.8, 1.2, 1.5])
        cob = build_change_of_basis("scaled-newton", 3, rs)
        blk = matrix_powers(self.op, self.seed, cob)
        prev2, prev = None, self.seed
        for k in range(3):
            w = self.op(prev) - cob.shift[k] * prev
            if cob.pair_role[k] == 2:
                w += cob.coupling[k] * prev2
            w /= cob.scale[k]
            npt.assert_array_equal(blk.v[:, k], w)
            prev2, prev = prev, w

    def test_zero_shift_unit_scale_equals_monomial_bitwise(self):
        rs = RitzSet(np.zeros(3, dtype=complex), np.zeros(3, dtype=np.uint8))
        newton = build_change_of_basis("newton", 3, rs)
        mono = build_change_of_basis("monomial", 3)
        npt.assert_array_equal(newton.shift, mono.shift[:3])
        a = matrix_powers(self.op, self.seed, newton)
        b = matrix_powers(self.op, self.seed, mono)
        npt.assert_array_equal(a.v, b.v)

    def test_power_of_two_scaling_is_exact(self):
        manual = build_change_of_basis("monomial", 3)
        manual.scale[:] = 2.0
        blk = matrix_powers(self.op, self.seed, manual)
        ref = matrix_powers(self.op, self.seed, build_change_of_basis("monomial", 3))
        npt.assert_array_equal(blk.v * [2.0, 4.0, 8.0], ref.v)

    def test_overflow_guard_returns_finite_prefix(self, monkeypatch):
        assert sstep.basis.OVERFLOW_LIMIT == pytest.approx(1e10 / np.sqrt(np.finfo(float).eps))
        cob = build_change_of_basis("monomial", 6)
        grow = lambda v: 1e8 * v
        monkeypatch.setattr(sstep.basis, "OVERFLOW_LIMIT", 1e20)
        blk = matrix_powers(grow, self.seed, cob)
        assert blk.truncated and blk.ncols == 2
        monkeypatch.setattr(sstep.basis, "OVERFLOW_LIMIT", 1e80)
        full = matrix_powers(grow, self.seed, cob)
        npt.assert_array_equal(blk.v, full.v[:, :2])

    def test_nonfinite_truncates(self, monkeypatch):
        cob = build_change_of_basis("monomial", 4)
        bad = lambda v: v * np.inf
        monkeypatch.setattr(sstep.basis, "OVERFLOW_LIMIT", np.inf)
        blk = matrix_powers(bad, self.seed, cob)
        assert blk.truncated and blk.ncols == 0
