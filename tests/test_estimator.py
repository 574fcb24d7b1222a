"""A priori basis-growth model and step-size recommendation."""

import math

import numpy as np
import numpy.testing as npt
import pytest

import sstep.estimator
from sstep import (
    DEFAULT_EPS_MODEL,
    DEFAULT_GROWTH_LIMIT,
    RitzSet,
    estimate_initial_step,
    newton_scalings,
)

EPS = DEFAULT_EPS_MODEL


def direct_growth(vals, eps_model):
    """Independent oracle: the same model with plain products, no logs."""
    vals = np.asarray(vals, dtype=np.complex128)
    gam = newton_scalings(vals)[0]
    s = len(vals)
    factors = np.empty((s, s))
    for i in range(s):
        for k in range(s):
            d = abs(vals[i] - vals[k])
            factors[i, k] = eps_model if d == 0.0 else d / gam[k]
    e = np.empty((s, s))
    for i in range(s):
        for j in range(s):
            upto = i + 1 if j == i else j
            e[i, j] = float(np.prod(factors[i, :upto]))
    return e


def estimate_by_rows(vals):
    """Reference: the log-space model filled one row and one column at a time."""
    vals = np.asarray(vals, dtype=np.complex128)
    s = len(vals)
    log_gam = np.log(newton_scalings(vals)[0])
    logg = np.empty((s, s))
    for i in range(s):
        d = np.abs(vals[i] - vals)
        with np.errstate(divide="ignore"):
            logg[i] = np.log(d) - log_gam
        logg[i, d == 0.0] = math.log(EPS)
    log_e = np.empty((s, s))
    for i in range(s):
        cs = np.concatenate(([0.0], np.cumsum(logg[i])))
        log_e[i] = cs[:s]
        log_e[i, i] = cs[i + 1]
    norms = np.empty(s)
    for j in range(s):
        m = float(np.max(log_e[:, j]))
        body = math.sqrt(float(np.sum(np.exp(2.0 * (log_e[:, j] - m)))))
        with np.errstate(over="ignore"):
            norms[j] = np.exp(m) * body
    return log_e, norms


def test_defaults():
    assert DEFAULT_EPS_MODEL == 2.0 ** -53
    assert DEFAULT_GROWTH_LIMIT == pytest.approx(0.1 / math.sqrt(np.finfo(float).eps))


def test_two_value_hand_case():
    # values [1, 3]: both scale factors are 1, the off-diagonal distance is 2
    out = estimate_initial_step([1.0, 3.0])
    growth = np.exp(out.log_growth)
    npt.assert_allclose(growth[0], [EPS, EPS], rtol=1e-12)
    npt.assert_allclose(growth[1], [1.0, 2.0 * EPS], rtol=1e-12)
    npt.assert_allclose(out.col_norms, [math.sqrt(1 + EPS**2), math.sqrt(5.0) * EPS],
                        rtol=1e-12)
    assert out.s0_star == 2


def test_exact_duplicates_use_eps_model():
    out = estimate_initial_step([2.0, 2.0])
    e = np.exp(out.log_growth)
    assert e[0, 0] == pytest.approx(EPS, rel=1e-12)
    assert e[1, 1] == pytest.approx(EPS * EPS, rel=1e-12)
    assert e[1, 0] == pytest.approx(1.0)
    assert out.s0_star == 2


def test_log_route_matches_direct_products(monkeypatch):
    monkeypatch.setattr(sstep.estimator, "DEFAULT_EPS_MODEL", 1e-10)
    rng = np.random.default_rng(51)
    for _ in range(5):
        vals = rng.uniform(1.0, 20.0, 8)
        out = estimate_initial_step(vals)
        want = direct_growth(vals, 1e-10)
        npt.assert_allclose(out.log_growth, np.log(want), rtol=0, atol=1e-10)
        npt.assert_allclose(out.col_norms, np.linalg.norm(want, axis=0), rtol=1e-10)


def test_accepts_ritz_set_and_respects_order():
    rs = RitzSet.from_values([1.0, 5.0, 3.0])
    from_set = estimate_initial_step(rs)
    from_array = estimate_initial_step(rs.values)
    npt.assert_array_equal(from_set.log_growth, from_array.log_growth)
    # order matters: the step-k denominator and factor follow the input order
    other = estimate_initial_step(rs.values[::-1])
    assert not np.array_equal(other.log_growth, from_set.log_growth)


def test_growth_limit_controls_recommendation():
    vals = np.linspace(1.0, 50.0, 10)
    wide = estimate_initial_step(vals, growth_limit=1e300)
    assert wide.s0_star == 10
    narrow = estimate_initial_step(vals, growth_limit=np.min(wide.col_norms) * 0.5)
    assert narrow.s0_star == 1


def test_columns_beyond_limit_are_rejected():
    vals = np.linspace(1.0, 200.0, 40)
    out = estimate_initial_step(vals)
    s0 = out.s0_star
    assert out.col_norms[s0 - 1] < DEFAULT_GROWTH_LIMIT
    if s0 < 40:
        assert out.col_norms[s0] >= DEFAULT_GROWTH_LIMIT


def test_growth_below_diagonal_is_partial_products():
    # entry (i, j), j < i, is the product of the first j factors of row i:
    # 1 in column 0, then |theta_i - theta_0| / gamma_0, ...
    vals = [1.0, 2.0, 4.0]
    low = np.tril(np.exp(estimate_initial_step(vals).log_growth), -1)
    npt.assert_array_equal(low[1:, 0], [1.0, 1.0])
    npt.assert_allclose(low, np.tril(direct_growth(vals, EPS), -1), rtol=1e-12)


def test_input_guards():
    with pytest.raises(ValueError, match="at least one"):
        estimate_initial_step([])


@pytest.mark.parametrize("npairs,nreal", [(0, 1), (0, 9), (2, 3), (5, 12), (18, 4), (40, 30)])
def test_matches_row_loop_reference_bitwise(npairs, nreal):
    # criterion 5's s0* rides on this summation order, so equal to the last bit
    rng = np.random.default_rng(npairs * 100 + nreal)
    re, im = rng.uniform(0.1, 9.0, npairs), rng.uniform(0.05, 2.0, npairs)
    reals = rng.uniform(0.1, 9.0, nreal)
    vals = np.concatenate([re + 1j * im, re - 1j * im, reals, reals[:3], re[:2] + 1j * im[:2],
                           re[:2] - 1j * im[:2]])
    for order in (RitzSet.from_values(vals).values, vals):
        out = estimate_initial_step(order)
        log_e, norms = estimate_by_rows(order)
        npt.assert_array_equal(out.log_growth, log_e)
        npt.assert_array_equal(out.col_norms, norms)
        below = np.nonzero(norms < DEFAULT_GROWTH_LIMIT)[0]
        assert out.s0_star == (int(below[-1]) + 1 if len(below) else 1)
