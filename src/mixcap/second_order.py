"""Second-order coding rates of a mixed channel.

The central object is the nondecreasing map S -> G_w(R, S | P): mass of
components strictly below the rate plus variance-indexed Gaussian terms for
components pinned at the rate.  The second-order value is the supremum of the
feasible set {S : G_w <= eps}, which can be an open boundary when zero-variance
components make the map jump; results carry that flag alongside the value.

The general-mixture result is a LOWER BOUND; only the capacity-ordered path
is exact, and results are tagged accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import (
    CostSpec,
    InputDist,
    MixedChannel,
    channel_dispersion,
    psi_from_variance,
)
from .first_order import (
    _argmax_candidates,
    _candidate_inputs,
    _eps_search,
    _refine,
    component_informations,
    eps_capacity_well_ordered,
)
from .well_ordered import require_well_ordered

DEFAULT_TIE_TOL = 1e-9

METHOD_LOWER_BOUND = "lower-bound"
METHOD_EXACT = "exact-formula"


class CanonicalSandwichError(ValueError):
    """The input is not admissible for the canonical equation at this rate."""


class SolveResult(NamedTuple):
    s_value: float           # may be +-inf
    open_boundary: bool      # True when the feasible set excludes its supremum


@dataclass(frozen=True)
class SecondOrderResult:
    s_value: float
    rate: float
    input: InputDist
    gw_at_solution: float
    theta2_mass: float
    method: str = METHOD_LOWER_BOUND
    open_boundary: bool = False


def _check_tie_tol(tie_tol: float) -> None:
    if tie_tol < 0:
        raise ValueError("tie_tol must be nonnegative")


def _classify(values, weights, r: float, tie_tol: float):
    """Split atom mass into strictly-below / at-rate buckets."""
    _check_tie_tol(tie_tol)
    base = 0.0
    at = []  # (weight, index)
    for idx, (v, w) in enumerate(zip(values, weights)):
        if v < r - tie_tol:
            base += w
        elif abs(v - r) <= tie_tol:
            at.append((w, idx))
    return base, at


def gw(mixed: MixedChannel, p: InputDist, r: float, s: float,
       tie_tol: float = DEFAULT_TIE_TOL) -> float:
    """G_w(R, S | P): strictly-below mass plus Gaussian mass of at-rate atoms."""
    return _gw_and_mass(mixed, p, component_informations(mixed, p), r, s, tie_tol)[0]


def _gw_and_mass(mixed: MixedChannel, p: InputDist, values, r: float, s: float,
                 tie_tol: float):
    """(G_w(R, S | P), at-rate mass), atoms classified by ``values`` against r.

    S may be +-inf, where G_w takes its limits: the strictly-below mass, or
    that plus the at-rate mass.
    """
    base, at = _classify(values, mixed.weights, r, tie_tol)
    mass_at = sum(w for w, _ in at)
    if not math.isfinite(s):
        return (base if s < 0 else base + mass_at), mass_at
    total = base
    for w_k, idx in at:
        total += w_k * psi_from_variance(channel_dispersion(p, mixed.components[idx]), s)
    return total, mass_at


def _split_at_rate(mixed: MixedChannel, p: InputDist, at):
    """At-rate atoms as Gaussian (weight, variance) terms plus zero-variance step mass."""
    gauss, step_mass = [], 0.0
    for w_k, idx in at:
        v = channel_dispersion(p, mixed.components[idx])
        if v > 0.0:
            gauss.append((w_k, v))
        else:
            step_mass += w_k
    return gauss, step_mass


def _sup_feasible(base: float, gauss: list, step_mass: float, eps: float) -> SolveResult:
    """sup{S : base + step_mass 1{S>=0} + sum w G(S/sqrt(V)) <= eps}.

    ``gauss`` holds (weight, variance) pairs with variance > 0.  Resolves the
    jump at S = 0 contributed by zero-variance atoms: the supremum may then be
    an open boundary, reported via the flag.
    """
    pos_mass = sum(w for w, _ in gauss)
    total = base + step_mass + pos_mass

    if total <= eps:
        return SolveResult(math.inf, False)
    if base > eps:
        return SolveResult(-math.inf, False)

    def g_cont(s: float) -> float:
        return base + sum(w * psi_from_variance(v, s) for w, v in gauss)

    if not gauss:
        # pure step: feasible exactly on S < 0 (base <= eps < base + step_mass)
        return SolveResult(0.0, True)

    if base == eps:
        # Gaussian terms are strictly positive, so no S is feasible
        return SolveResult(-math.inf, False)

    if g_cont(0.0) + step_mass <= eps:
        # supremum on [0, +inf): continuous and strictly increasing there
        target = eps - step_mass
        lo, hi = 0.0, 1.0
        while g_cont(hi) <= target:
            hi *= 2.0
            if hi > 1e12:
                return SolveResult(math.inf, False)
        return SolveResult(_bisect_nondecreasing(g_cont, target, lo, hi), False)

    if g_cont(0.0) <= eps:
        # every S < 0 is feasible, S = 0 is not: open boundary at the jump
        return SolveResult(0.0, True)

    # supremum on (-inf, 0): continuous and strictly increasing
    hi = 0.0
    lo = -1.0
    while g_cont(lo) > eps:
        lo *= 2.0
        if lo < -1e12:
            return SolveResult(-math.inf, False)
    return SolveResult(_bisect_nondecreasing(g_cont, eps, lo, hi), False)


def _bisect_nondecreasing(fn, target: float, lo: float, hi: float) -> float:
    """Largest s in [lo, hi] with fn(s) <= target, for nondecreasing fn."""
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
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    values = component_informations(mixed, p)
    base, at = _classify(values, mixed.weights, r, tie_tol)
    return _sup_feasible(base, *_split_at_rate(mixed, p, at), eps)


def canonical_solution(mixed: MixedChannel, p: InputDist, eps: float,
                       capacity: float, tie_tol: float = DEFAULT_TIE_TOL) -> SolveResult:
    """Solve sum over at-capacity atoms of w_k Psi_k(S) = eps - w{I < capacity}.

    Requires the admissibility sandwich w{I < C} <= eps <= w{I <= C} at the
    given input; +inf when no atom sits at the capacity (non-unique solution).
    """
    values = component_informations(mixed, p)
    base, at = _classify(values, mixed.weights, capacity, tie_tol)
    mass_at = sum(w for w, _ in at)
    if base > eps + 1e-12 or base + mass_at < eps - 1e-12:
        raise CanonicalSandwichError(
            f"input is not admissible at this rate: w{{I<C}}={base:.12g}, "
            f"w{{I<=C}}={base + mass_at:.12g}, eps={eps:.12g}"
        )
    if mass_at == 0.0:
        return SolveResult(math.inf, False)
    return _sup_feasible(base, *_split_at_rate(mixed, p, at), eps)


def _extended_key(res: SolveResult):
    """Ordering key for extended reals: closed boundaries beat open ones at ties."""
    return (res.s_value, not res.open_boundary)


def second_order_lb(
    mixed: MixedChannel,
    cost: CostSpec | None = None,
    r: float | None = None,
    eps: float = 0.0,
    grid: int = 32,
    tie_tol: float = DEFAULT_TIE_TOL,
    rate_tol: float = 1e-9,
) -> SecondOrderResult:
    """Direct-part second-order rate at rate r: sup over feasible P of solve_s.

    A LOWER BOUND for general mixtures (no converse is available); +-inf when
    the rate is off the first-order capacity by more than ``rate_tol``.  The
    eps-capacity search and this one share one candidate list.
    """
    _check_tie_tol(tie_tol)
    if cost is None:
        cost = CostSpec.free(mixed.num_inputs)
    cost.check_feasible()
    candidates = _candidate_inputs(mixed, cost, grid)
    cap_res = _eps_search(mixed, cost, eps, candidates)
    if r is None:
        r = cap_res.capacity
    if r < cap_res.capacity - rate_tol:
        return SecondOrderResult(math.inf, r, cap_res.argmax_input, 0.0, 0.0,
                                 METHOD_LOWER_BOUND)
    if r > cap_res.capacity + rate_tol:
        return SecondOrderResult(-math.inf, r, cap_res.argmax_input, 1.0, 0.0,
                                 METHOD_LOWER_BOUND)

    candidates.append(cap_res.argmax_input)

    # refinement may not trade dispersion against classification slack: at-rate
    # atoms stay pinned well inside the tie band
    snap_tol = max(1e-12, tie_tol * 1e-3)

    def objective(p_arr, strict: bool = False) -> float:
        pd = InputDist(p_arr)
        res = solve_s(mixed, pd, r, eps, tie_tol)
        val = res.s_value
        if math.isfinite(val) and res.open_boundary:
            val -= 1e-13  # prefer a closed boundary at the same point
        if strict and math.isfinite(val):
            infos = component_informations(mixed, pd)
            for v_i in infos:
                if snap_tol < abs(v_i - r) <= tie_tol:
                    return -math.inf
        return val

    _, best_arr = _argmax_candidates(objective, candidates, cost,
                                     refine_objective=lambda a: objective(a, strict=True))
    best_p = InputDist(best_arr)
    best_res = solve_s(mixed, best_p, r, eps, tie_tol)
    g_at, mass_at = _gw_and_mass(mixed, best_p, component_informations(mixed, best_p), r,
                                 best_res.s_value, tie_tol)
    return SecondOrderResult(best_res.s_value, r, best_p, g_at, mass_at, METHOD_LOWER_BOUND,
                             best_res.open_boundary)


def second_order_well_ordered(
    mixed: MixedChannel,
    cost: CostSpec | None = None,
    eps: float = 0.0,
    tie_tol: float = 1e-7,
) -> SecondOrderResult:
    """Exact second-order rate at R = C_eps for capacity-ordered mixtures.

    Atoms are classified against R by their component capacities; the sup runs
    over the capacity-achieving polytope of the best component.  On it each
    at-rate dispersion is linear in P, so with one at-rate atom the sup sits at
    a vertex; with several, the best vertex climbs its barycentric weights.
    The ordering check supplies the polytope and the component solves, so each
    component is solved once; the call refuses (pointing to the lower-bound
    path) when that check fails.
    """
    report = require_well_ordered(mixed, cost)
    optima = [rs.solve for rs in report.rep_sets]
    cap_res = eps_capacity_well_ordered(mixed, cost, eps, optima)
    r = cap_res.capacity
    caps = [res.capacity for res in optima]
    base, at = _classify(caps, mixed.weights, r, tie_tol)

    def solve_at(p: InputDist) -> SolveResult:
        return _sup_feasible(base, *_split_at_rate(mixed, p, at), eps)

    vertices = report.rep_sets[cap_res.achieving_component].representatives
    results = [solve_at(p) for p in vertices]
    best = max(range(len(vertices)),
               key=lambda i: (_extended_key(results[i]), tuple(vertices[i].probs)))
    best_p, best_res = vertices[best], results[best]
    if len(at) > 1 and len(vertices) > 1:
        corners = np.array([p.probs for p in vertices])
        weights = _refine(lambda t: solve_at(InputDist(t @ corners)).s_value,
                          np.eye(len(vertices))[best], CostSpec.free(len(vertices)))
        p = InputDist(weights @ corners)
        res = solve_at(p)
        if _extended_key(res) > _extended_key(best_res):
            best_p, best_res = p, res
    g_at, mass_at = _gw_and_mass(mixed, best_p, caps, r, best_res.s_value, tie_tol)
    return SecondOrderResult(best_res.s_value, r, best_p, g_at, mass_at,
                             METHOD_EXACT, best_res.open_boundary)
