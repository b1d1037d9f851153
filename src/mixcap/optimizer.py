"""Cost-constrained capacity of a single DMC and its capacity-achieving inputs.

The workhorse is alternating maximization with a Lagrangian cost tilt and an
outer bisection on the multiplier.  For binary input alphabets the optimum is
additionally polished by a derivative bisection, which pins the argmax itself
(not just the value) to near machine precision.  The capacity-achieving inputs
form a polytope, returned as its vertices.
"""

from __future__ import annotations

import itertools
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


def _ba_tilted(w: Dmc, lam: float, costs: np.ndarray, tol: float, start=None, cap=MAX_ITER):
    """Maximize I(P, W) - lam * E c(X_P) by alternating maximization from ``start``.

    Returns (p, value, iterations).  The stopping certificate is the standard
    one: value <= max_x (D_x - lam c(x)), so the gap bounds the optimality
    error of the value.  A ``cap`` below MAX_ITER returns the iterate reached.
    """
    k = w.num_inputs
    p = np.full(k, 1.0 / k) if start is None else np.array(start, dtype=float)
    p /= p.sum()
    for iters in range(1, cap + 1):
        d = _divergences(p, w)
        score = d - lam * costs
        lower = float(p @ score)
        upper = float(score.max())
        if upper - lower <= tol or iters == cap < MAX_ITER:
            break
        # multiplicative update; exp shifted by the max score for stability
        p = p * np.exp(score - upper)
        s = p.sum()
        if s <= 0.0 or not np.isfinite(s):
            raise ConvergenceError("alternating maximization collapsed numerically")
        p /= s
    else:
        raise ConvergenceError(
            f"alternating maximization did not converge within {MAX_ITER} iterations"
        )
    return p, float(p @ (d - lam * costs)), iters


def _binary_polish(w: Dmc, lo: float, hi: float) -> float:
    """For |X| = 2, bisect dI/dp on [lo, hi]; p is the mass of letter 0.

    The derivative of I((p, 1-p), W) in the direction e0 - e1 equals
    D(W(.|0)||PW) - D(W(.|1)||PW) and is nonincreasing in p.
    """

    def deriv(p):
        d = _divergences(np.array([p, 1.0 - p]), w)
        return d[0] - d[1]

    eps = 1e-12
    f_lo = deriv(min(lo + eps, hi))
    f_hi = deriv(max(hi - eps, lo))
    if abs(f_lo) < 1e-13 and abs(f_hi) < 1e-13:
        return 0.5 * (lo + hi)  # flat face: any interior point is optimal
    if f_lo <= 0.0:
        return lo
    if f_hi >= 0.0:
        return hi
    a, b = lo, hi
    for _ in range(200):
        m = 0.5 * (a + b)
        if deriv(m) > 0.0:
            a = m
        else:
            b = m
        if b - a < 1e-16:
            break
    return 0.5 * (a + b)


def constrained_capacity(w: Dmc, cost: CostSpec | None = None,
                         _start: np.ndarray | None = None) -> CapacityResult:
    """max I(P, W) over inputs with expected cost at most gamma, in nats.

    Unconstrained (or slack) budgets run plain alternating maximization; an
    active budget is handled by bisection on the multiplier, keeping a
    certified bracket on the value.  The value is optimal within
    ``DEFAULT_TOL``, and the returned input passes ``kt_verify``.  A feasible ``_start``
    warm-starts the solves and caps a slack budget's (only ``_dual_bound`` is then certified).
    """
    if cost is None:
        cost = CostSpec.free(w.num_inputs)
    cost.check_feasible()
    if len(cost.costs) != w.num_inputs:
        raise ValueError("cost vector length does not match the channel input alphabet")
    k = w.num_inputs
    costs = cost.costs

    if not cost.is_unconstrained and cost.gamma <= cost.gamma_zero + 1e-12:
        # budget pinned at the cheapest letters: optimize inside that face
        idx = np.flatnonzero(costs <= cost.gamma_zero + 1e-12)  # the affordable letters
        sub_res = constrained_capacity(Dmc(w.rows[idx]), CostSpec.free(len(idx)))
        p = np.zeros(k)
        p[idx] = sub_res.optimal_input.probs
        lam = _budget_multiplier(w, p, cost)
        return CapacityResult(sub_res.capacity, InputDist(p), lam,
                              _kt_worst_slack(w, p, cost, lam), sub_res.iterations)

    # the unconstrained optimum answers unless the budget excludes it
    if k == 2:
        p0 = _binary_polish(w, 0.0, 1.0)
        p = np.array([p0, 1.0 - p0])
        value_u, iters = mutual_information(InputDist(p), w), 200
    else:
        p, value_u, iters = _ba_tilted(w, 0.0, costs, DEFAULT_TOL, _start,
                                       MAX_ITER if _start is None else WARM_MAX_ITER)
    if cost.is_unconstrained or float(p @ costs) <= cost.gamma + 1e-12:
        return CapacityResult(max(value_u, 0.0), InputDist(p), 0.0,
                              _kt_worst_slack(w, p, cost, 0.0), iters)

    gamma = cost.gamma
    if k == 2:
        return _binary_constrained(w, cost, iters)

    # active budget: bisection on the multiplier until the expected cost of the
    # tilted optimum pins the budget, keeping a certified value bracket
    lam_hi = math.log(min(k, w.num_outputs)) / max(gamma - cost.gamma_zero, 1e-12) + 1.0
    lam_lo = 0.0
    inner_tol = 1e-11
    best_p, best_val = None, -math.inf
    dual_best = math.inf
    total_iters = iters
    converged = False
    for _ in range(200):
        lam = 0.5 * (lam_lo + lam_hi)
        p, _, it = _ba_tilted(w, lam, costs, inner_tol, None if _start is None else p)
        total_iters += it
        feas_p = _project_to_budget(p, cost)
        val = mutual_information(InputDist(feas_p), w)
        if val > best_val:
            best_p, best_val = feas_p, val
        exp_cost = float(p @ costs)
        if exp_cost > gamma:
            lam_lo = lam
        else:
            lam_hi = lam
        d = _divergences(p, w)
        dual_best = min(dual_best, float((d - lam * costs).max()) + lam * gamma)
        if dual_best - best_val <= DEFAULT_TOL and (
                abs(exp_cost - gamma) <= 1e-9 or lam_hi - lam_lo <= 1e-11):
            converged = True
            break
    if not converged:
        raise ConvergenceError("multiplier bisection did not close the capacity bracket")
    lam0 = 0.5 * (lam_lo + lam_hi)
    return CapacityResult(max(best_val, 0.0), InputDist(best_p), lam0,
                          _kt_worst_slack(w, best_p, cost, lam0), total_iters)


def _binary_constrained(w: Dmc, cost: CostSpec, iters: int) -> CapacityResult:
    """Active budget with |X| = 2: the feasible segment is one-dimensional."""
    if cost.costs[0] == cost.costs[1]:  # budget cannot be active
        raise ConvergenceError("active budget with equal letter costs")
    p0 = _binary_polish(w, *_binary_feasible_interval(cost))
    p = np.array([p0, 1.0 - p0])
    value = mutual_information(InputDist(p), w)
    lam = _budget_multiplier(w, p, cost)
    return CapacityResult(max(value, 0.0), InputDist(p), lam,
                          _kt_worst_slack(w, p, cost, lam), iters)


def _budget_multiplier(w: Dmc, p: np.ndarray, cost: CostSpec) -> float:
    """Least multiplier making the Kuhn-Tucker condition hold at p."""
    d = _divergences(p, w)
    cap = float(p @ np.where(p > 0, d, 0.0))
    lam = 0.0
    gamma = cost.gamma if cost.gamma is not None else float(cost.costs.max())
    for x in range(len(p)):
        gap = cost.costs[x] - gamma
        if gap > 1e-12 and d[x] > cap:
            lam = max(lam, (d[x] - cap) / gap)
    return lam


def _project_to_budget(p: np.ndarray, cost: CostSpec) -> np.ndarray:
    """Mix p toward the cheapest letter until the budget holds."""
    gamma = float(cost.gamma)
    exp_cost = float(p @ cost.costs)
    if exp_cost <= gamma:
        return p
    x0 = int(np.argmin(cost.costs))
    delta = np.zeros_like(p)
    delta[x0] = 1.0
    c0 = cost.costs[x0]
    alpha = (exp_cost - gamma) / max(exp_cost - c0, 1e-300)
    alpha = min(max(alpha, 0.0), 1.0)
    return (1.0 - alpha) * p + alpha * delta


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
    gamma = float(cost.costs.max()) if cost.gamma is None else cost.gamma
    slack = d - (mutual_information(p, w) + lambda0 * (cost.costs - gamma))
    worst = float(np.where(support, np.abs(slack), slack).max())
    return worst <= tol, worst


def _kt_worst_slack(w: Dmc, p: np.ndarray, cost: CostSpec, lam: float) -> float:
    return kt_verify(w, InputDist(p), cost, lam)[1]


def _dual_bound(w: Dmc, p: np.ndarray, cost: CostSpec, lam: float) -> float:
    """max_x (D(W(.|x) || PW) - lam c(x)) + lam gamma: for any p and lam >= 0, >= the capacity."""
    gamma = 0.0 if cost.gamma is None else cost.gamma
    return float((_divergences(p, w) - lam * cost.costs).max()) + lam * gamma


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
    by its tolerance, so each basic solution is a least-squares one.  Raises
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
        if cost.gamma is not None:
            p = _project_to_budget(p, cost)  # round-off only: the budget row holds
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
