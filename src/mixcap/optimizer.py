"""Cost-constrained capacity of a single DMC and its capacity-achieving inputs.

The workhorse is alternating maximization with a Lagrangian cost tilt and an
outer bisection on the multiplier.  For binary input alphabets the optimum is
additionally polished by a derivative bisection, which pins the argmax itself
(not just the value) to near machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    CostSpec,
    Dmc,
    InputDist,
    mutual_information,
    output_distribution,
    row_divergences,
)
from .types_toolkit import compositions

DEFAULT_TOL = 1e-9
DEFAULT_KT_TOL = 1e-6
MAX_ITER = 10**6
# capacity_achieving_set: seeded restarts, their iteration cap, and the
# total-variation radius under which two representatives are one
N_RESTARTS = 8
RESTART_SEED = 0
RESTART_MAX_ITER = 200_000
DEDUP_TV = 1e-6


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
    """Finitely many representatives of the capacity-achieving input set.

    The set itself may be a continuum; representatives all achieve the
    capacity within ``opt_tolerance`` and share the (unique) capacity-achieving
    output distribution ``cap_output``.  ``solve`` is the
    ``constrained_capacity`` result the set was built around.
    """

    representatives: tuple
    cap_output: np.ndarray
    opt_tolerance: float
    solve: CapacityResult


def _divergences(p: np.ndarray, w: Dmc) -> np.ndarray:
    """D(W(.|x) || PW) for every x, with +inf where PW fails to dominate."""
    return row_divergences(w, p @ w.rows)


def _ba_tilted(w: Dmc, lam: float, costs: np.ndarray, tol: float,
               start: np.ndarray | None = None, max_iter: int = MAX_ITER):
    """Maximize I(P, W) - lam * E c(X_P) by alternating maximization.

    Returns (p, value, iterations).  The stopping certificate is the standard
    one: value <= max_x (D_x - lam c(x)), so the gap bounds the optimality
    error of the value.
    """
    k = w.num_inputs
    p = np.full(k, 1.0 / k) if start is None else start.copy()
    p = np.clip(p, 1e-300, None)
    p /= p.sum()
    iters = 0
    for iters in range(1, max_iter + 1):
        d = _divergences(p, w)
        score = d - lam * costs
        lower = float(p @ score)
        upper = float(score.max())
        if upper - lower <= tol:
            break
        # multiplicative update; exp shifted by the max score for stability
        p = p * np.exp(score - upper)
        s = p.sum()
        if s <= 0.0 or not np.isfinite(s):
            raise ConvergenceError("alternating maximization collapsed numerically")
        p /= s
    else:
        raise ConvergenceError(
            f"alternating maximization did not converge within {max_iter} iterations"
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


def _restrict_to_budget_letters(w: Dmc, cost: CostSpec):
    """Sub-channel on the letters affordable at gamma == gamma_zero."""
    idx = np.flatnonzero(cost.costs <= cost.gamma_zero + 1e-12)
    return idx, Dmc(w.rows[idx])


def _embed(p_sub: np.ndarray, idx: np.ndarray, k: int) -> np.ndarray:
    full = np.zeros(k)
    full[idx] = p_sub
    return full


def constrained_capacity(w: Dmc, cost: CostSpec | None = None) -> CapacityResult:
    """max I(P, W) over inputs with expected cost at most gamma, in nats.

    Unconstrained (or slack) budgets run plain alternating maximization; an
    active budget is handled by bisection on the multiplier, keeping a
    certified bracket on the value.  The value is optimal within
    ``DEFAULT_TOL``, and the returned input passes ``kt_verify``.
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
        idx, sub = _restrict_to_budget_letters(w, cost)
        sub_res = constrained_capacity(sub, CostSpec.free(len(idx)))
        p = _embed(sub_res.optimal_input.probs, idx, k)
        lam = _budget_multiplier(w, p, cost)
        return CapacityResult(sub_res.capacity, InputDist(p), lam,
                              _kt_worst_slack(w, p, cost, lam), sub_res.iterations)

    # the unconstrained optimum answers unless the budget excludes it
    if k == 2:
        p0 = _binary_polish(w, 0.0, 1.0)
        p_u = np.array([p0, 1.0 - p0])
        value_u, iters = mutual_information(InputDist(p_u), w), 200
    else:
        p_u, value_u, iters = _ba_tilted(w, 0.0, costs, DEFAULT_TOL)
    if cost.is_unconstrained or float(p_u @ costs) <= cost.gamma + 1e-12:
        return CapacityResult(max(value_u, 0.0), InputDist(p_u), 0.0,
                              _kt_worst_slack(w, p_u, cost, 0.0), iters)

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
        p, _, it = _ba_tilted(w, lam, costs, inner_tol)
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


def kt_verify(
    w: Dmc,
    p: InputDist,
    cost: CostSpec | None,
    lambda0: float,
    tol: float = DEFAULT_KT_TOL,
):
    """Kuhn-Tucker check: D(W(.|x) || PW) <= I(P,W) + lambda0 (c(x) - gamma).

    Equality must hold within tol on the support of P.  Returns
    ``(passed, worst_slack)`` where the slack is the largest signed violation
    over both clauses.
    """
    if cost is None:
        cost = CostSpec.free(w.num_inputs)
    d = _divergences(p.probs, w)
    cap = mutual_information(p, w)
    if cost.gamma is None:
        rhs = np.full(w.num_inputs, cap)
        if lambda0 != 0.0:
            rhs = cap + lambda0 * (cost.costs - float(cost.costs.max()))
    else:
        rhs = cap + lambda0 * (cost.costs - cost.gamma)
    worst = -math.inf
    for x in range(w.num_inputs):
        slack = d[x] - rhs[x]
        if p.probs[x] > 1e-12:
            slack = abs(slack)
        worst = max(worst, slack)
    return worst <= tol, float(worst)


def _kt_worst_slack(w: Dmc, p: np.ndarray, cost: CostSpec, lam: float) -> float:
    return kt_verify(w, InputDist(p), cost, lam)[1]


def _simplex_grid(k: int, denom: int):
    """All probability vectors with denominator ``denom`` on the k-simplex."""
    for counts in compositions(denom, k):
        yield np.array(counts, dtype=float) / denom


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(p - q).sum())


def capacity_achieving_set(
    w: Dmc,
    cost: CostSpec | None = None,
    grid: int = 32,
) -> CapacityAchievingSet:
    """Representatives of the capacity-achieving input set.

    Candidates come from the main solve, multi-start alternating maximization,
    and a simplex-grid sweep at resolution 1/grid; near-duplicates are merged
    by total-variation distance.  The optimum from ``constrained_capacity`` is
    always included, so the set is never empty.
    """
    if cost is None:
        cost = CostSpec.free(w.num_inputs)
    base = constrained_capacity(w, cost)
    cap = base.capacity
    k = w.num_inputs
    candidates = [base.optimal_input.probs]

    # multi-start hunts for distinct optima on flat faces; the binary simplex
    # grid below already covers those, so |X| = 2 skips the restarts
    if k > 2:
        rng = np.random.default_rng(RESTART_SEED)
        lam = base.multiplier
        for _ in range(N_RESTARTS):
            start = rng.dirichlet(np.ones(k))
            try:
                p, _, _ = _ba_tilted(w, lam, cost.costs, DEFAULT_TOL * 0.1,
                                     start=start, max_iter=RESTART_MAX_ITER)
            except ConvergenceError:
                continue
            candidates.append(_project_to_budget(p, cost) if cost.gamma is not None else p)

    for g in _simplex_grid(k, grid):
        candidates.append(g)

    polished = None
    if k == 2:
        feas_lo, feas_hi = _binary_feasible_interval(cost)
        p0 = _binary_polish(w, feas_lo, feas_hi)
        cand = np.array([p0, 1.0 - p0])
        if (cost.admits(InputDist(cand))
                and abs(mutual_information(InputDist(cand), w) - cap) <= DEFAULT_TOL):
            polished = cand

    reps = []
    for c in candidates:
        c = np.clip(c, 0.0, None)
        s = c.sum()
        if s <= 0:
            continue
        c = c / s
        pd = InputDist(c)
        if not cost.admits(pd):
            continue
        if mutual_information(pd, w) < cap - DEFAULT_TOL:
            continue
        # pin near-optimal grid points to the optimum they approximate;
        # flat faces are wider than the pinning radius and keep their spread
        if polished is not None and total_variation(polished, c) <= 0.75 / max(grid, 2):
            c, pd = polished, InputDist(polished)
        if any(total_variation(c, r.probs) <= DEDUP_TV for r in reps):
            continue
        reps.append(pd)

    cap_output = output_distribution(reps[0], w)
    return CapacityAchievingSet(tuple(reps), cap_output, DEFAULT_TOL, base)


def _binary_feasible_interval(cost: CostSpec):
    """Feasible range of the first letter's mass for |X| = 2."""
    if cost.gamma is None:
        return 0.0, 1.0
    c0, c1 = cost.costs
    gamma = float(cost.gamma)
    if c0 == c1:
        return 0.0, 1.0
    if c0 > c1:
        return 0.0, min(max((gamma - c1) / (c0 - c1), 0.0), 1.0)
    return max(min((gamma - c1) / (c0 - c1), 1.0), 0.0), 1.0
