"""Second-order coding rates of a mixed channel.

The central object is the nondecreasing map S -> G_w(R, S | P): mass of
components strictly below the rate plus variance-indexed Gaussian terms for
components pinned at the rate.  The second-order value is the supremum of the
feasible set {S : G_w <= eps}, which can be an open boundary when zero-variance
components make the map jump; results carry that flag alongside the value.

The general-mixture result is a LOWER BOUND; after a passed capacity-ordering
check the same sup is the exact formula, and results are tagged accordingly.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .channel import (SUM_TOL, CostSpec, InputDist, MixedChannel, channel_dispersion,
                      informations, psi_from_variance)
from .first_order import _check_eps, eps_capacity
from .well_ordered import require_well_ordered

DEFAULT_TIE_TOL = 1e-9
RATE_TOL = 1e-9  # second_order_lb: a rate this close to the eps-capacity counts as on it
REFINE_STEPS = 60  # rounds of pair moves when a vertex climbs its barycentric weights

METHOD_LOWER_BOUND = "lower-bound"
METHOD_EXACT = "exact-formula"


class SolveResult(NamedTuple):
    s_value: float           # may be +-inf
    open_boundary: bool      # True when the feasible set excludes its supremum


class SecondOrderResult(NamedTuple):
    s_value: float
    rate: float
    input: InputDist
    gw_at_solution: float
    theta2_mass: float
    method: str = METHOD_LOWER_BOUND
    open_boundary: bool = False


def _check_args(tie_tol: float, eps: float = 0.0, **rates) -> None:
    """Refuse a bad eps or tie_tol, or a NaN rate or S (+-inf are legal), before any work."""
    _check_eps(eps)
    if not (math.isfinite(tie_tol) and tie_tol >= 0):
        raise ValueError("tie_tol must be finite and nonnegative")
    for name, value in rates.items():
        if value is not None and math.isnan(value):
            raise ValueError(f"{name} must not be NaN")


def _at_rate(mixed: MixedChannel, p: InputDist, values, r: float, tie_tol: float):
    """(w{value < r - tie_tol}, [(w_theta, V_theta at p)] for |value - r| <= tie_tol)."""
    below = values < r - tie_tol
    at = ~below & (np.abs(values - r) <= tie_tol)
    # summed in atom order: another order moves the printed G_w in its last digit
    base = float(np.cumsum(mixed.weights[below])[-1]) if below.any() else 0.0
    return base, [(float(mixed.weights[k]), channel_dispersion(p, mixed.atoms[k][1]))
                  for k in np.flatnonzero(at)]


def _gw(base: float, at: list, s: float) -> float:
    """G_w(R, S | P) from ``_at_rate``'s split; at S = +-inf its limits, base or base + mass."""
    if not math.isfinite(s):
        return base if s < 0 else base + sum(w for w, _ in at)
    total = base
    for w, v in at:
        total += w * psi_from_variance(v, s)
    return total


def gw(mixed: MixedChannel, p: InputDist, r: float, s: float,
       tie_tol: float = DEFAULT_TIE_TOL) -> float:
    """G_w(R, S | P): strictly-below mass plus Gaussian mass of at-rate atoms."""
    _check_args(tie_tol, r=r, s=s)
    values = informations(p.probs, mixed.rows, mixed.log_rows)
    return _gw(*_at_rate(mixed, p, values, r, tie_tol), s)


def _sup_feasible(base: float, at: list, eps: float) -> SolveResult:
    """sup{S : G_w <= eps} for G_w = base + sum over ``at``'s (weight, variance) pairs.

    Zero-variance atoms add a step at S = 0: the supremum may then be an open
    boundary, reported via the flag.  Atom masses within ``SUM_TOL`` above eps
    count as eps, as in the eps-capacity's quantile.
    """
    gauss = [(w, v) for w, v in at if v > 0.0]
    step_mass = sum(w for w, v in at if not v > 0.0)
    pos_mass = sum(w for w, _ in gauss)
    total = base + step_mass + pos_mass

    if total <= eps + SUM_TOL:
        return SolveResult(math.inf, False)
    if base > eps + SUM_TOL:
        return SolveResult(-math.inf, False)

    def g_cont(s: float) -> float:
        return base + sum(w * psi_from_variance(v, s) for w, v in gauss)

    if not gauss:
        # pure step: feasible exactly on S < 0 (base <= eps < base + step_mass)
        return SolveResult(0.0, True)

    if base >= eps:
        # Gaussian terms are strictly positive, so no S is feasible
        return SolveResult(-math.inf, False)

    if g_cont(0.0) + step_mass <= eps:
        # supremum on [0, +inf): continuous and strictly increasing there
        return SolveResult(_edge_sup(g_cont, eps - step_mass, 1.0), False)

    if g_cont(0.0) <= eps:
        # every S < 0 is feasible, S = 0 is not: open boundary at the jump
        return SolveResult(0.0, True)

    # supremum on (-inf, 0): continuous and strictly increasing
    return SolveResult(_edge_sup(g_cont, eps, -1.0), False)


def _edge_sup(fn, target: float, step: float) -> float:
    """sup{s : fn(s) <= target} for nondecreasing fn, on the side of 0 that ``step`` (+-1)
    names: the edge doubles from ``step`` until it brackets the crossing (+-inf past
    1e12), then bisection keeps the feasible end."""
    edge = step
    while fn(edge) <= target if step > 0 else fn(edge) > target:
        edge *= 2.0
        if abs(edge) > 1e12:
            return math.copysign(math.inf, step)
    lo, hi = (0.0, edge) if step > 0 else (edge, 0.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fn(mid) <= target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, abs(lo)):
            break
    return lo


def solve_s(mixed: MixedChannel, p: InputDist, r: float, eps: float,
            tie_tol: float = DEFAULT_TIE_TOL) -> SolveResult:
    """sup{S : G_w(R, S | P) <= eps} as an extended real with a boundary flag."""
    _check_args(tie_tol, eps, r=r)
    values = informations(p.probs, mixed.rows, mixed.log_rows)
    return _sup_feasible(*_at_rate(mixed, p, values, r, tie_tol), eps)


def _key(res: SecondOrderResult):
    """Larger is better: the value, then closed boundaries over open ones, then the input."""
    return res.s_value, not res.open_boundary, tuple(res.input.probs)


def _sup_over_vertices(evaluate, vertices) -> SecondOrderResult:
    """The best vertex's result by ``_key``; with several vertices, the best vertex
    then climbs its barycentric weights by pair moves."""
    results = [evaluate(p) for p in vertices]
    best = max(range(len(vertices)), key=lambda i: _key(results[i]))
    best_res = results[best]
    if len(vertices) < 2 or best_res.s_value == -math.inf:
        return best_res
    corners = np.array([p.probs for p in vertices])
    t, delta = np.eye(len(vertices))[best], 0.25
    for _ in range(REFINE_STEPS):
        moved = False
        for i, j in itertools.permutations(range(len(t)), 2):
            if t[i] >= delta:
                cand = t + delta * (np.eye(len(t))[j] - np.eye(len(t))[i])
                res = evaluate(InputDist(cand @ corners))
                if res.s_value > best_res.s_value + 1e-15:
                    t, best_res, moved = cand, res, True
        delta *= 1.0 if moved else 0.5
        if delta < 1e-7:
            break
    return best_res


def second_order_lb(mixed: MixedChannel, cost: CostSpec | None = None, r: float | None = None,
                    eps: float = 0.0, tie_tol: float = DEFAULT_TIE_TOL,
                    _rep_sets=None, _method: str = METHOD_LOWER_BOUND) -> SecondOrderResult:
    """Direct-part second-order rate at rate r: the best candidate among the eps-capacity optima.

    A LOWER BOUND for general mixtures (no converse is available); +-inf when the
    rate is off the first-order capacity by more than ``RATE_TOL``.  The sup runs over
    the ``winners`` of ``eps_capacity`` (given ``_rep_sets``), each candidate scored from
    one split of its informations; an input with an atom in the band snap_tol <
    |I - r| <= tie_tol scores -inf, so no climb trades dispersion for slack.  That
    conservative band is empty under ``_method`` METHOD_EXACT, which scores every input.
    """
    _check_args(tie_tol, eps, r=r)
    cap_res = eps_capacity(mixed, cost, eps, _rep_sets)
    if r is None:
        r = cap_res.capacity
    if abs(r - cap_res.capacity) > RATE_TOL:  # S = +inf below the capacity, -inf above
        below = r < cap_res.capacity
        return SecondOrderResult(math.inf if below else -math.inf, r, cap_res.argmax_input,
                                 0.0 if below else 1.0, 0.0, _method)
    snap_tol = tie_tol if _method == METHOD_EXACT else max(1e-12, tie_tol * 1e-3)

    def evaluate(p: InputDist) -> SecondOrderResult:
        values = informations(p.probs, mixed.rows, mixed.log_rows)
        off = np.abs(values - r)
        base, at = _at_rate(mixed, p, values, r, tie_tol)
        res = (SolveResult(-math.inf, False) if ((snap_tol < off) & (off <= tie_tol)).any()
               else _sup_feasible(base, at, eps))
        return SecondOrderResult(res.s_value, r, p, _gw(base, at, res.s_value),
                                 sum(w for w, _ in at), _method, res.open_boundary)

    return max((_sup_over_vertices(evaluate, verts) for verts in cap_res.winners), key=_key)


def second_order_well_ordered(mixed: MixedChannel, cost: CostSpec | None = None,
                              eps: float = 0.0, tie_tol: float = DEFAULT_TIE_TOL
                              ) -> SecondOrderResult:
    """Exact second-order rate at R = C_eps for capacity-ordered mixtures.

    It is ``second_order_lb`` at the eps-capacity after the ordering check, whose
    component solves it reuses, without the lower bound's snap band: for an ordered
    family the paper's formula is that sup, over the optimal-input polytope of the
    component at the rate, so the result is tagged exact.  The call refuses (pointing
    to the lower-bound path) when the check fails.
    """
    _check_args(tie_tol, eps)
    rep_sets = require_well_ordered(mixed, cost).rep_sets
    return second_order_lb(mixed, cost, None, eps, tie_tol, rep_sets, METHOD_EXACT)
