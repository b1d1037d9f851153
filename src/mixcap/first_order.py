"""First-order coding rates of a mixed channel.

The core object is the quantile of a weighted value list: the largest value
whose strictly-below mass stays within the error budget.  The capacity is the
sup of that quantile over feasible inputs, found by candidate search; for
channels whose components are ordered by capacity the sup collapses to the
quantile over component capacities.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import CostSpec, InputDist, MixedChannel, mutual_information
from .optimizer import CapacityResult, constrained_capacity, _simplex_grid

VALUE_DECIMALS = 12  # atoms with values closer than 1e-12 merge in quantiles

# sup-over-inputs search: the simplex grid serves alphabets up to
# MAX_GRID_INPUTS letters, larger ones take N_STARTS seeded random starts; the
# REFINE_TOP best candidates get up to REFINE_STEPS rounds of pair moves
MAX_GRID_INPUTS = 4
N_STARTS = 16
SEARCH_SEED = 0
REFINE_STEPS = 60
REFINE_TOP = 4


@dataclass(frozen=True)
class QuantileCurve:
    """Step function R -> mass strictly below R, for a weighted value list.

    ``breakpoints`` is a sorted tuple of (value, mass_strictly_below); the
    mass at each value is the jump to the next breakpoint.  ``source`` tags
    what the values are (per-input mutual informations or component
    capacities).
    """

    breakpoints: tuple
    source: str

    def __post_init__(self):
        vals = [v for v, _ in self.breakpoints]
        masses = [m for _, m in self.breakpoints]
        if any(a >= b for a, b in zip(vals, vals[1:])):
            raise ValueError("breakpoint values must be strictly increasing")
        if any(a > b for a, b in zip(masses, masses[1:])) or (
                masses and not 0.0 <= masses[0]):
            raise ValueError("strictly-below masses must be nondecreasing from 0")

    def masses(self, r: float) -> tuple:
        """(w{value < r}, w{value <= r}), values within the merge rounding equal.

        The mass at a breakpoint is the jump to the next one (to 1 after the
        last); the mass below r is taken through the last breakpoint under r.
        """
        vals = [v for v, _ in self.breakpoints]
        i = bisect.bisect_left(vals, r)
        below = 0.0 if i == 0 else self.breakpoints[i - 1][1] + self._jump(i - 1)
        r_round = round(r, VALUE_DECIMALS)
        j = bisect.bisect_left(vals, r_round)
        if j < len(vals) and vals[j] == r_round:
            return below, below + self._jump(j)
        return below, below

    def _jump(self, i: int) -> float:
        nxt = self.breakpoints[i + 1][1] if i + 1 < len(self.breakpoints) else 1.0
        return nxt - self.breakpoints[i][1]

    def quantile(self, eps: float):
        """Largest breakpoint value whose strictly-below mass is <= eps."""
        i = bisect.bisect_right([m for _, m in self.breakpoints], eps)
        return self.breakpoints[i - 1][0] if i else None


def build_quantile_curve(values, weights, source: str) -> QuantileCurve:
    vals = np.round(np.asarray(values, dtype=float), VALUE_DECIMALS)
    wts = np.asarray(weights, dtype=float)
    order = np.argsort(vals, kind="stable")
    breakpoints = []
    below = 0.0
    i = 0
    vals, wts = vals[order], wts[order]
    while i < len(vals):
        j = i
        mass = 0.0
        while j < len(vals) and vals[j] == vals[i]:
            mass += wts[j]
            j += 1
        breakpoints.append((float(vals[i]), below))
        below += mass
        i = j
    return QuantileCurve(tuple(breakpoints), source)


@dataclass(frozen=True)
class EpsCapacityResult:
    capacity: float
    argmax_input: InputDist
    achieving_component: int | None = None
    mass_below: float = 0.0
    mass_at_or_below: float = 1.0


def component_informations(mixed: MixedChannel, p: InputDist) -> np.ndarray:
    return np.array([mutual_information(p, comp) for comp in mixed.components])


def rate_quantile(mixed: MixedChannel, p: InputDist, eps: float) -> float:
    """sup{R : w{theta : I(P, W_theta) < R} <= eps} for a fixed input P."""
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    curve = build_quantile_curve(component_informations(mixed, p),
                                 mixed.weights, "per-input I-values")
    return curve.quantile(eps)


def _candidate_inputs(mixed: MixedChannel, cost: CostSpec, grid: int):
    """Feasible search seeds: every component's optimum, then the grid or random starts."""
    k = mixed.num_inputs
    cands = [constrained_capacity(comp, cost).optimal_input.probs
             for comp in mixed.components]
    if k <= MAX_GRID_INPUTS:
        cands.extend(_simplex_grid(k, grid))
    else:
        rng = np.random.default_rng(SEARCH_SEED)
        cands.extend(rng.dirichlet(np.ones(k)) for _ in range(N_STARTS))
    out = []
    for c in cands:
        pd = InputDist(np.clip(c, 0.0, None) / np.clip(c, 0.0, None).sum())
        if cost.admits(pd):
            out.append(pd)
    return out


def _refine(objective, p: np.ndarray, cost: CostSpec) -> np.ndarray:
    """Projected coordinate-pair ascent with a shrinking step; a -inf start stays as is."""
    k = len(p)
    best = p.copy()
    best_val = objective(best)
    if best_val == -math.inf:
        return best
    delta = 0.25
    for _ in range(REFINE_STEPS):
        improved = False
        for i, j in itertools.permutations(range(k), 2):
            if best[i] < delta:
                continue
            cand = best.copy()
            cand[i] -= delta
            cand[j] += delta
            pd = InputDist(cand)
            if not cost.admits(pd):
                continue
            val = objective(cand)
            if val > best_val + 1e-15:
                best, best_val = cand, val
                improved = True
        if not improved:
            delta *= 0.5
            if delta < 1e-7:
                break
    return best


def _argmax_candidates(objective, candidates, cost: CostSpec, refine_objective=None):
    """Deterministic argmax: score, then refine the leaders, break ties lexicographically.

    The leaders climb ``refine_objective`` (default ``objective``) when refined.
    """
    scored = [(objective(c.probs), tuple(c.probs), c.probs) for c in candidates]
    scored.sort(key=lambda t: (t[0], t[1]), reverse=True)
    leaders = scored[:REFINE_TOP]
    best_val, _, best_p = leaders[0]
    for val, _, p in leaders:
        refined = _refine(refine_objective or objective, p, cost)
        rval = objective(refined)
        if (rval, tuple(refined)) > (best_val, tuple(best_p)):
            best_val, best_p = rval, refined
    return best_val, best_p


def eps_capacity(
    mixed: MixedChannel,
    cost: CostSpec | None = None,
    eps: float = 0.0,
    grid: int = 32,
) -> EpsCapacityResult:
    """First-order capacity: sup over feasible P of the rate quantile.

    The search is seeded with every component's constrained-capacity optimum
    plus a simplex grid at resolution 1/grid (or multi-start for larger
    alphabets), then locally refined.  The reported value is the best found
    at that resolution; it never exceeds the true sup.
    """
    if cost is None:
        cost = CostSpec.free(mixed.num_inputs)
    cost.check_feasible()
    return _eps_search(mixed, cost, eps, _candidate_inputs(mixed, cost, grid))


def _eps_search(mixed: MixedChannel, cost: CostSpec, eps: float,
                candidates) -> EpsCapacityResult:
    """``eps_capacity`` over the given candidate inputs."""

    def objective(p_arr: np.ndarray) -> float:
        return rate_quantile(mixed, InputDist(p_arr), eps)

    best_val, best_p = _argmax_candidates(objective, candidates, cost)
    p_best = InputDist(best_p)
    curve = build_quantile_curve(component_informations(mixed, p_best),
                                 mixed.weights, "per-input I-values")
    below, at = curve.masses(best_val)
    return EpsCapacityResult(best_val, p_best, None, below, at)


def capacity_quantile_curve(mixed: MixedChannel,
                            optima: list[CapacityResult]) -> QuantileCurve:
    """Quantile curve over component capacities (the capacity spectrum)."""
    return build_quantile_curve([res.capacity for res in optima],
                                mixed.weights, "component capacities")


def eps_capacity_well_ordered(
    mixed: MixedChannel,
    cost: CostSpec | None = None,
    eps: float = 0.0,
    optima: list[CapacityResult] | None = None,
) -> EpsCapacityResult:
    """Capacity via the quantile over component capacities.

    Valid when the component family is ordered by capacity (the caller
    asserts or has checked this); no optimization over inputs is involved.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    if cost is None:
        cost = CostSpec.free(mixed.num_inputs)
    cost.check_feasible()
    if optima is None:
        optima = [constrained_capacity(comp, cost) for comp in mixed.components]
    curve = capacity_quantile_curve(mixed, optima)
    value = curve.quantile(eps)
    # the first component whose capacity the curve rounded to the quantile
    achieving = next(i for i, res in enumerate(optima)
                     if np.round(res.capacity, VALUE_DECIMALS) == value)
    below, at = curve.masses(value)
    return EpsCapacityResult(value, optima[achieving].optimal_input, achieving, below, at)
