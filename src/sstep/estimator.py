"""A priori step-size choice from a set of shift values.

Models how fast the scaled shifted-power basis loses independence: entry
(i, j) of the growth matrix predicts the size of component i after j
recurrence steps, starting from a perturbation at the working precision.
The largest basis length whose predicted column norm stays under the
growth limit is the recommended initial step size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import newton_scalings

DEFAULT_GROWTH_LIMIT = 0.1 / math.sqrt(np.finfo(np.float64).eps)
DEFAULT_EPS_MODEL = 2.0 ** -53


@dataclass
class StepEstimate:
    """Growth prediction and the step size it recommends.

    s0_star    : largest column index (1-based) whose norm stays strictly
                 under the growth limit, 1 when none does.
    col_norms  : Euclidean norm of each growth-matrix column.
    log_growth : natural logs of the growth matrix entries; kept in log
                 form because the entries overflow double precision long
                 before the norms stop being comparable.
    """

    s0_star: int
    col_norms: np.ndarray
    log_growth: np.ndarray


def estimate_initial_step(values, growth_limit: float = DEFAULT_GROWTH_LIMIT) -> StepEstimate:
    """Predict basis growth for shift values in their given order.

    values may be a plain complex array or an object with a ``values``
    attribute.  The order matters: position k of the input drives
    recurrence step k.  Growth factors use the same mean-distance
    denominators, with the same floor, as the scaled basis construction.

    The per-step factor for component i at step k is
    |theta_i - theta_k| / gamma_k, replaced by DEFAULT_EPS_MODEL (read at
    call time) when the numerator vanishes (k = i or exact duplicates).
    Entry (i, j), counted from 0, is the product of the first j factors of
    row i, except the diagonal which takes the product through step i.  All
    products accumulate in log space; column norms come out through a
    stable log-sum-exp.
    """
    vals = np.asarray(getattr(values, "values", values), dtype=np.complex128).ravel()
    s = len(vals)
    if s == 0:
        raise ValueError("need at least one value")
    gam, _, _, _ = newton_scalings(vals)
    log_eps = math.log(DEFAULT_EPS_MODEL)
    log_gam = np.log(gam)

    d = np.abs(vals[:, None] - vals)
    with np.errstate(divide="ignore"):
        logg = np.where(d == 0.0, log_eps, np.log(d) - log_gam)

    cs = np.cumsum(logg, axis=1)
    log_e = np.hstack([np.zeros((s, 1)), cs[:, :-1]])
    np.fill_diagonal(log_e, np.diagonal(cs))

    # each column summed as one contiguous row: the order the norms depend on
    m = np.max(log_e, axis=0)
    body = np.sqrt(np.exp(2.0 * (np.ascontiguousarray(log_e.T) - m[:, None])).sum(axis=1))
    with np.errstate(over="ignore"):
        norms = np.exp(m) * body

    below = np.nonzero(norms < growth_limit)[0]
    s0_star = int(below[-1]) + 1 if len(below) else 1
    return StepEstimate(s0_star=s0_star, col_norms=norms, log_growth=log_e)
