"""Cost-constrained capacity of a single DMC and its capacity-achieving inputs.

The workhorse is Blahut's alternating maximization with the budget inside its
P-step: the multiplicative update is tilted back onto {E c <= gamma}, and the
tilt's exponent is the Lagrange multiplier, so one loop serves every budget.
A budget pinned at the cheapest cost is solved on the face of the cheapest
letters.  For binary input alphabets the optimum is found by a derivative
bisection instead, which pins the argmax itself (not just the value) to near
machine precision.  The capacity-achieving inputs form a polytope, returned as
its vertices.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    CostSpec,
    Dmc,
    InputDist,
    mutual_information,
    row_divergences,
)
from .types_toolkit import ENUM_CAP, EnumerationCapError

log = logging.getLogger(__name__)

DEFAULT_TOL = 1e-9
DEFAULT_KT_TOL = 1e-6
MAX_ITER = 10**6
WARM_MAX_ITER = 1000  # cap of a warm-started solve, which returns the iterate it reached


class ConvergenceError(RuntimeError):
    """Raised when an iterative solve fails to reach its tolerance."""


@dataclass(frozen=True)
class CapacityResult:
    """Capacity of one component under a cost budget.

    ``kt_slack`` is the worst signed violation of the Kuhn-Tucker condition at
    the returned input; on success it is at most the kt tolerance.
    """

    capacity: float
    optimal_input: InputDist
    multiplier: float
    kt_slack: float
    iterations: int


@dataclass(frozen=True)
class CapacityAchievingSet:
    """The vertices of the capacity-achieving input polytope.

    Every capacity-achieving input is a convex combination of the
    ``representatives``, which are those vertices: each achieves the capacity
    within ``opt_tolerance`` and has the (unique) capacity-achieving output
    distribution ``cap_output``.  ``solve`` is the ``constrained_capacity``
    result the polytope was built around.
    """

    representatives: tuple
    cap_output: np.ndarray
    opt_tolerance: float
    solve: CapacityResult


def _divergences(p: np.ndarray, w: Dmc) -> np.ndarray:
    """D(W(.|x) || PW) for every x, with +inf where PW fails to dominate."""
    return row_divergences(w, p @ w.rows)


def _tilt(p: np.ndarray, costs: np.ndarray, gamma: float, lam: float = 0.0):
    """The I-projection of p on {E c <= gamma}: (p e^(-lam c) normalized, lam).

    p itself and lam = 0 when p meets the budget; else lam > 0 is the root of
    E c = gamma, which falls in lam at rate Var c, by Newton steps from ``lam``
    safeguarded by bisection.  A budget at the cheapest cost on p's support is
    met only as lam -> inf: p conditioned on those letters.
    """
    if p @ costs <= gamma + 1e-12:
        return p, 0.0
    c0 = costs[p > 0].min()
    if gamma <= c0 + 1e-12:
        q = np.where(costs <= c0 + 1e-12, p, 0.0)
        return q / q.sum(), math.inf
    shift = np.maximum(costs - c0, 0.0)  # e^(-lam shift) <= 1 on the support
    lo, hi = 0.0, math.inf
    for _ in range(100):
        q = p * np.exp(-lam * shift)
        q /= q.sum()
        mean = float(q @ costs)
        if abs(mean - gamma) <= 1e-13:
            break
        lo, hi = (lam, hi) if mean > gamma else (lo, lam)
        var = float(q @ (costs - mean) ** 2)
        lam = lam + (mean - gamma) / var if var > 0.0 else hi
        if not lo < lam < hi:
            lam = 0.5 * (lo + hi) if hi < math.inf else 2.0 * lo + 1.0
    return q, lam


def _ba_tilted(w: Dmc, costs: np.ndarray, gamma: float, start=None, cap=MAX_ITER):
    """Maximize I(P, W) over {E c(X_P) <= gamma} by alternating maximization from ``start``.

    The P-step takes P e^D, D_x = D(W(.|x) || PW), to its I-projection on the
    budget (``_tilt``), whose lam is the multiplier (Blahut 1972).  Returns
    (p, value, lam, iterations) with value = I(P, W).  The stopping certificate
    is the dual bound max_x (D_x - lam c(x)) + lam gamma, which is at least the
    capacity for any lam >= 0, within ``DEFAULT_TOL`` of the value.  A ``cap``
    below MAX_ITER returns the iterate reached.
    """
    k = w.num_inputs
    p = np.full(k, 1.0 / k) if start is None else np.array(start, dtype=float)
    p, lam = _tilt(p / p.sum(), costs, gamma)
    bind = gamma < costs.max()  # else no input exceeds the budget
    for iters in range(1, cap + 1):
        d = _divergences(p, w)
        score = d - lam * costs
        value, upper = float(p @ d), float(score.max())
        if upper + lam * gamma - value <= DEFAULT_TOL or iters == cap < MAX_ITER:
            break
        # multiplicative update P e^D; exp shifted by max D (which is upper at lam = 0)
        p = p * np.exp(d - (upper if lam == 0.0 else d.max()))
        s = p.sum()
        if s <= 0.0 or not np.isfinite(s):
            raise ConvergenceError("alternating maximization collapsed numerically")
        p /= s
        if bind:
            p, lam = _tilt(p, costs, gamma, lam)
    else:
        raise ConvergenceError(
            f"alternating maximization did not converge within {MAX_ITER} iterations"
        )
    return p, value, lam, iters


def _binary_polish(w: Dmc, lo: float, hi: float):
    """For |X| = 2, bisect dI/dp on [lo, hi]; returns (p, steps), p the mass of letter 0.

    The derivative of I((p, 1-p), W) in the direction e0 - e1 equals
    D(W(.|0)||PW) - D(W(.|1)||PW) and is nonincreasing in p.  The bisection
    stops when the bracket is below 1e-16 or no longer shrinks.
    """

    def deriv(p):
        d = _divergences(np.array([p, 1.0 - p]), w)
        return d[0] - d[1]

    eps = 1e-12
    f_lo = deriv(min(lo + eps, hi))
    f_hi = deriv(max(hi - eps, lo))
    if abs(f_lo) < 1e-13 and abs(f_hi) < 1e-13:
        return 0.5 * (lo + hi), 0  # flat face: any interior point is optimal
    if f_lo <= 0.0:
        return lo, 0
    if f_hi >= 0.0:
        return hi, 0
    a, b = lo, hi
    for steps in range(1, 201):
        width = b - a
        m = 0.5 * (a + b)
        if deriv(m) > 0.0:
            a = m
        else:
            b = m
        if b - a < 1e-16 or b - a == width:  # a bracket that kept its width stays put
            break
    return 0.5 * (a + b), steps


def constrained_capacity(w: Dmc, cost: CostSpec | None = None,
                         _start: np.ndarray | None = None) -> CapacityResult:
    """max I(P, W) over inputs with expected cost at most gamma, in nats.

    A budget at the cheapest cost is solved on the face of the cheapest
    letters; |X| = 2 by ``_binary_polish`` on the feasible segment; any other
    budget, binding or slack, by one run of ``_ba_tilted``, whose tilt gives
    the multiplier.  The value is optimal within ``DEFAULT_TOL``, and the
    returned input meets the budget and passes ``kt_verify``.  A feasible
    ``_start`` warm-starts that run and caps it at ``WARM_MAX_ITER``
    iterations: the iterate reached is feasible, and ``_dual_bound`` at it and
    its multiplier is certified.  Under DEBUG logging each solve reports its
    path, iterations, certified gap and multiplier.
    """
    if cost is None:
        cost = CostSpec.free(w.num_inputs)
    cost.check_feasible()
    if len(cost.costs) != w.num_inputs:
        raise ValueError("cost vector length does not match the channel input alphabet")
    costs = cost.costs

    if not cost.is_unconstrained and cost.gamma <= cost.gamma_zero + 1e-12:
        # budget pinned at the cheapest letters: optimize inside that face
        idx = np.flatnonzero(costs <= cost.gamma_zero + 1e-12)  # the affordable letters
        sub_res = constrained_capacity(Dmc(w.rows[idx]), CostSpec.free(len(idx)))
        p = np.zeros(w.num_inputs)
        p[idx] = sub_res.optimal_input.probs
        value, lam, iters = sub_res.capacity, _budget_multiplier(w, p, cost), sub_res.iterations
        path = "pinned face"
    elif w.num_inputs == 2:
        p0, iters = _binary_polish(w, 0.0, 1.0)
        binding = float(np.array([p0, 1.0 - p0]) @ costs) > cost.budget + 1e-12
        if binding:  # the budget excludes the free optimum: polish on the feasible segment
            p0, steps = _binary_polish(w, *_binary_feasible_interval(cost))
            iters += steps
        p = np.array([p0, 1.0 - p0])
        value = mutual_information(InputDist(p), w)
        lam = _budget_multiplier(w, p, cost) if binding else 0.0
        path = "binary polish"
    else:
        p, value, lam, iters = _ba_tilted(w, costs, cost.budget, _start,
                                          MAX_ITER if _start is None else WARM_MAX_ITER)
        path = "alternating maximization"
    if log.isEnabledFor(logging.DEBUG):
        log.debug("constrained_capacity (%s): %d iterations, certified gap %.3g, "
                  "multiplier %.12g", path, iters, _dual_bound(w, p, cost, lam) - value, lam)
    return CapacityResult(max(value, 0.0), InputDist(p), lam,
                          _kt_worst_slack(w, p, cost, lam), iters)


def _budget_multiplier(w: Dmc, p: np.ndarray, cost: CostSpec) -> float:
    """Least multiplier making the Kuhn-Tucker condition hold at p."""
    d = _divergences(p, w)
    cap = float(p @ np.where(p > 0, d, 0.0))
    lam = 0.0
    for x in range(len(p)):
        gap = cost.costs[x] - cost.budget
        if gap > 1e-12 and d[x] > cap:
            lam = max(lam, (d[x] - cap) / gap)
    return lam


def _optimal_letters(w: Dmc, p: np.ndarray, costs: np.ndarray, lam: float,
                     tol: float = DEFAULT_KT_TOL):
    """S*: the letters whose tilted divergence D_x - lam c(x) at p is within tol of its max.

    Returns ``(mask, d)`` with d = D(W(.|x) || PW).  At an optimum these are
    the letters on which the Kuhn-Tucker condition holds with equality, so a
    letter the solver left a vanishing mass on stays out.
    """
    d = _divergences(p, w)
    score = d - lam * costs
    return score >= score.max() - tol, d


def kt_verify(
    w: Dmc,
    p: InputDist,
    cost: CostSpec | None,
    lambda0: float,
    tol: float = DEFAULT_KT_TOL,
):
    """Kuhn-Tucker check: D(W(.|x) || PW) <= I(P,W) + lambda0 (c(x) - gamma).

    Equality must hold within tol on the optimal letters S*
    (``_optimal_letters``).  Returns ``(passed, worst_slack)`` where the slack
    is the largest signed violation over both clauses.
    """
    if cost is None:
        cost = CostSpec.free(w.num_inputs)
    support, d = _optimal_letters(w, p.probs, cost.costs, lambda0, tol)
    slack = d - (mutual_information(p, w) + lambda0 * (cost.costs - cost.budget))
    worst = float(np.where(support, np.abs(slack), slack).max())
    return worst <= tol, worst


def _kt_worst_slack(w: Dmc, p: np.ndarray, cost: CostSpec, lam: float) -> float:
    return kt_verify(w, InputDist(p), cost, lam)[1]


def _dual_bound(w: Dmc, p: np.ndarray, cost: CostSpec, lam: float) -> float:
    """max_x (D(W(.|x) || PW) - lam c(x)) + lam gamma: for any p and lam >= 0, >= the capacity."""
    return float((_divergences(p, w) - lam * cost.costs).max()) + lam * cost.budget


def _basic_solutions(a: np.ndarray, b: np.ndarray, tol: float):
    """(basis, z_basis) per full-rank, rank-sized column subset whose least-squares solution
    of a z = b has no entry below -tol; over ``ENUM_CAP`` subsets raise EnumerationCapError.
    """
    rank = int(np.linalg.matrix_rank(a))
    n_bases = math.comb(a.shape[1], rank)
    if n_bases > ENUM_CAP:
        raise EnumerationCapError(f"{n_bases} candidate bases exceed the cap {ENUM_CAP}")
    for basis in itertools.combinations(range(a.shape[1]), rank):
        coef, _, sub_rank, _ = np.linalg.lstsq(a[:, basis], b, rcond=None)
        if sub_rank == rank and coef.min() >= -tol:
            yield basis, coef


def capacity_achieving_set(w: Dmc, cost: CostSpec | None = None) -> CapacityAchievingSet:
    """The vertices of the capacity-achieving input polytope.

    The polytope is {P >= 0 : supp P in S*, PW = q*}, where q* and S* come
    from one ``constrained_capacity`` solve, cut by the budget: E c(X) = gamma
    when it binds (multiplier > 0), else E c(X) + s = gamma with a slack s >= 0.
    Its vertices are the basic solutions over rank-sized column subsets; one is
    kept when it is nonnegative within ``DEFAULT_KT_TOL`` and achieves the
    capacity within ``DEFAULT_TOL``.  The solver's q* may miss the span of S*
    by its tolerance, so each basic solution is a least-squares one, which is
    then tilted (``_tilt``) onto the budget's face: a binding budget left
    unspent by t costs about the multiplier times t of information.  Raises
    ``EnumerationCapError`` when the number of subsets exceeds ``ENUM_CAP``.
    """
    if cost is None:
        cost = CostSpec.free(w.num_inputs)
    base = constrained_capacity(w, cost)
    p_star = base.optimal_input.probs
    q_star = p_star @ w.rows
    support, _ = _optimal_letters(w, p_star, cost.costs, base.multiplier)
    letters = np.flatnonzero(support)
    a, b = w.rows[letters].T, q_star
    budget = cost.costs[letters]
    if base.multiplier > 0.0:
        a, b = np.vstack([a, budget]), np.append(b, cost.gamma)
    elif cost.gamma is not None and cost.gamma < budget.max():
        # the budget may cut the face: E c(X) + s = gamma with a slack column s >= 0
        a = np.vstack([np.column_stack([a, np.zeros(len(b))]), np.append(budget, 1.0)])
        b = np.append(b, cost.gamma)
    vertices = []
    for basis, coef in _basic_solutions(a, b, DEFAULT_KT_TOL):
        chosen = [j for j in basis if j < len(letters)]  # the slack column is last
        p = np.zeros(w.num_inputs)
        p[letters[chosen]] = np.clip(coef[:len(chosen)], 0.0, None)
        p /= p.sum()
        # round-off and the solver's stray mass off S* can move p off the budget's face
        p = _tilt(p, cost.costs, cost.budget)[0]
        if base.multiplier > 0.0:  # the face is E c = gamma: tilt onto E (-c) <= -gamma too
            p = _tilt(p, -cost.costs, -cost.gamma)[0]
        vertex = InputDist(p)
        if mutual_information(vertex, w) < base.capacity - DEFAULT_TOL:
            continue
        # a degenerate vertex is the basic solution of several subsets
        if any(np.abs(p - v.probs).max() <= DEFAULT_KT_TOL for v in vertices):
            continue
        vertices.append(vertex)
    if not vertices:
        raise ConvergenceError("no basic solution over the optimal letters achieves the capacity")
    return CapacityAchievingSet(tuple(vertices), q_star, DEFAULT_TOL, base)


def _binary_feasible_interval(cost: CostSpec):
    """Feasible range of the first letter's mass for |X| = 2, a budget and unequal costs."""
    c0, c1 = cost.costs
    gamma = float(cost.gamma)
    if c0 > c1:
        return 0.0, min(max((gamma - c1) / (c0 - c1), 0.0), 1.0)
    return max(min((gamma - c1) / (c0 - c1), 1.0), 0.0), 1.0
