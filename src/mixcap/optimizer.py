"""Cost-constrained capacity of a single DMC and its capacity-achieving inputs.

The workhorse is Blahut's alternating maximization with the budget inside its
P-step: the multiplicative update is tilted back onto {E c <= gamma}, and the
tilt's exponent is the Lagrange multiplier, so one loop serves every budget and
every input alphabet.  It starves a letter just below the Kuhn-Tucker level
only slowly, so Newton's method on the Kuhn-Tucker system of the optimal face
finishes it; the dual bound certifies either.  A budget pinned at the cheapest
cost is solved on the face of the cheapest letters.  The capacity-achieving
inputs form a polytope, returned as its vertices.
"""

from __future__ import annotations

import itertools
import logging
import math
from typing import NamedTuple

import numpy as np

from . import channel
from .channel import CostSpec, Dmc, InputDist, mutual_information
from .types_toolkit import ENUM_CAP, EnumerationCapError

log = logging.getLogger(__name__)

DEFAULT_TOL = 1e-9
DEFAULT_KT_TOL = 1e-6
MAX_ITER = 10**6
# Newton on a face: the spread of its equations at which it stops, and its step cap
KINK_TOL, POLISH_STEPS = 1e-14, 20


class ConvergenceError(RuntimeError):
    """Raised when an iterative solve fails to reach its tolerance."""


class CapacityResult(NamedTuple):
    """Capacity of one component under a cost budget.

    ``kt_slack`` is the worst signed violation of the Kuhn-Tucker condition at
    the returned input; on success it is at most the kt tolerance.
    """

    capacity: float
    optimal_input: InputDist
    multiplier: float
    kt_slack: float
    iterations: int


class CapacityAchievingSet(NamedTuple):
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
    return channel._divergences(w.rows, w.log_rows, p @ w.rows)


def _kt_score(d: np.ndarray, cost: CostSpec, lam: float) -> np.ndarray:
    """The Kuhn-Tucker score D_x - lam (c(x) - gamma) of every letter, given d = D_x.

    Its max over x is the dual bound.  At lam = +inf it is the limit: +inf on a
    letter below the budget, D_x on one within 1e-12 of it (0 inf = 0), -inf above.
    """
    excess = cost.costs - cost.budget
    if lam < math.inf:
        return d - lam * excess
    return np.where(excess > 1e-12, -math.inf, np.where(excess < -1e-12, math.inf, d))


def _tilt(p: np.ndarray, costs: np.ndarray, gamma: float, lam: float = 0.0):
    """The I-projection of p on {E c <= gamma}: (p e^(-lam c) normalized, lam).

    p itself and lam = 0 when p meets the budget; else lam > 0 is the root of
    E c = gamma, which falls in lam at rate Var c, by Newton steps from ``lam``
    safeguarded by bisection.  A budget at the cheapest cost on p's support is
    met only as lam -> inf: p conditioned on those letters, even when p is within
    1e-12 of a budget at the alphabet's cheapest cost below its dearest.
    """
    mean = p @ costs  # the pinned test runs only within 1e-12 above the budget
    if mean <= gamma or mean <= gamma + 1e-12 and not (
            gamma <= costs.min() + 1e-12 and gamma < costs.max()):
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


def _newton_on_face(f, z: np.ndarray, row=None, lam: float = 0.0):
    """Newton's method for f(z) = t + lam c, sum z = 1 and c @ z = gamma over z >= 0.

    ``f(z)`` gives the equations' values and Jacobian on the face z > 0.  The
    unknowns are z there, the level t and, given ``row = (c, gamma)``, lam
    (starting at ``lam``), whose term lam c_i joins face coordinate i's equation.
    Each step solves the linearization by least squares; a coordinate it drives
    negative leaves the face.  Stops when the linear rows hold within KINK_TOL and
    the equations' spread is within KINK_TOL max(1, |lam c_i|) (the rounding
    scale of lam c_i), or after POLISH_STEPS steps; returns (z, lam, steps).
    """
    for steps in range(POLISH_STEPS + 1):
        face = z > 0.0
        vals, jac = f(z)
        if row is None:
            lin, border, resid = np.ones((1, face.sum())), -np.ones((len(vals), 1)), vals
        else:
            lin = np.vstack([np.ones(face.sum()), row[0][face]])
            border, resid = -lin.T, vals - lam * row[0][face]
        gap = np.append(1.0, [] if row is None else row[1]) - lin @ z[face]
        scale = 1.0 if row is None else max(1.0, float(np.abs(lam * row[0][face]).max()))
        if (np.ptp(resid) <= KINK_TOL * scale and np.abs(gap).max() <= KINK_TOL
                or steps == POLISH_STEPS):
            break
        a = np.block([[jac, border], [lin, np.zeros((len(lin), len(lin)))]])
        sol = np.linalg.lstsq(a, np.concatenate([resid.min() - resid, gap]), rcond=None)[0]
        z = np.maximum(z + np.bincount(np.flatnonzero(face), sol[:face.sum()], len(z)), 0.0)
        lam += 0.0 if row is None else float(sol[-1])
    return z, lam, steps


def _face_step(w: Dmc, cost: CostSpec, p: np.ndarray, score: np.ndarray, lam: float):
    """Newton on D_x - lam c(x) = t over the faces of the m best-scored letters, m = 1, 2, ...

    The budget row c @ P = gamma and lam join when the tilt is active (lam > 0).
    Newton starts from p on the face, with mass 1/m on a letter p leaves empty
    (its mass can underflow).  Returns ((p, value, lam), steps) at the first feasible
    face solution the dual bound certifies within ``DEFAULT_TOL``, else (None, steps).
    """
    row = (cost.costs, cost.budget) if lam > 0.0 else None

    def equations(z):  # D_x on the face, and dD_x / dz_x' = -sum_y W(y|x) W(y|x') / q(y)
        rows, q = w.rows[z > 0.0], z @ w.rows
        ratio = np.divide(rows, q, out=np.zeros_like(rows), where=q > 0.0)
        return _divergences(z, w)[z > 0.0], -ratio @ rows.T

    total, order = 0, np.argsort(-score, kind="stable")
    for face in (order[:m] for m in range(1, len(p) + 1)):
        if row is not None and not cost.costs[face].min() <= cost.budget <= cost.costs[face].max():
            continue  # no input on this face spends the budget exactly
        z = np.bincount(face, np.where(p[face] > 0.0, p[face], 1.0 / len(face)), len(p))
        z, face_lam, steps = _newton_on_face(equations, z / z.sum(), row, lam)
        total += steps
        z = InputDist(z / z.sum())
        value = mutual_information(z, w)
        if face_lam >= 0.0 and cost.admits(z) and (
                _dual_bound(w, z.probs, cost, face_lam) - value <= DEFAULT_TOL):
            return (z.probs, value, face_lam), total
    return None, total


def _ba_tilted(w: Dmc, cost: CostSpec):
    """Maximize I(P, W) over {E c(X_P) <= gamma} by alternating maximization from uniform.

    The P-step takes P e^D, D_x = D(W(.|x) || PW), to its I-projection on the
    budget (``_tilt``), whose lam is the multiplier (Blahut 1972).  The
    stopping certificate is the dual bound, the max of ``_kt_score``, which is
    at least the capacity for any lam >= 0, within ``DEFAULT_TOL`` of the
    value.  Each time that gap has halved since the last face tried,
    ``_face_step`` tries to finish the solve by Newton on the optimal face.
    Returns (p, value, lam, iterations, newton_steps, path) with value =
    I(P, W).
    """
    costs, gamma = cost.costs, cost.budget
    p, lam = _tilt(np.full(w.num_inputs, 1.0 / w.num_inputs), costs, gamma)
    steps, tried = 0, math.inf  # Newton steps, and the gap at the last face tried
    for iters in range(1, MAX_ITER + 1):
        d = _divergences(p, w)
        score = _kt_score(d, cost, lam)
        value = float(p @ d)
        gap = float(score.max()) - value
        if gap <= DEFAULT_TOL:
            return p, value, lam, iters, steps, "alternating maximization"
        if gap <= 0.5 * tried:
            face, face_steps = _face_step(w, cost, p, score, lam)
            steps += face_steps
            if face is not None:
                return (*face, iters, steps, "Newton on the optimal face")
            tried = gap
        p = p * np.exp(d - d.max())  # the multiplicative update P e^D, shifted by max D
        s = p.sum()
        if s <= 0.0 or not np.isfinite(s):
            raise ConvergenceError("alternating maximization collapsed numerically")
        p, lam = _tilt(p / s, costs, gamma, lam)
    raise ConvergenceError(
        f"alternating maximization did not converge within {MAX_ITER} iterations")


def constrained_capacity(w: Dmc, cost: CostSpec | None = None) -> CapacityResult:
    """max I(P, W) over inputs with expected cost at most gamma, in nats.

    A budget at the cheapest cost is solved on the face of the cheapest
    letters, with the multiplier of ``_least_multiplier``; any other budget and
    input alphabet by one run of ``_ba_tilted``.  The value is optimal within
    ``DEFAULT_TOL``, and the returned input meets the budget and passes
    ``kt_verify``; ``iterations`` counts alternating iterations and Newton
    steps.  Under DEBUG logging each solve reports its path, both counts,
    certified gap and multiplier.
    """
    if cost is None:
        cost = CostSpec.free(w.num_inputs)
    cost.check_feasible()
    if len(cost.costs) != w.num_inputs:
        raise ValueError("cost vector length does not match the channel input alphabet")

    if not cost.is_unconstrained and cost.gamma <= cost.gamma_zero + 1e-12:
        # budget pinned at the cheapest letters: optimize inside that face
        idx = np.flatnonzero(cost.costs <= cost.gamma_zero + 1e-12)  # the affordable letters
        sub_res = constrained_capacity(Dmc(w.rows[idx]), CostSpec.free(len(idx)))
        p = np.bincount(idx, sub_res.optimal_input.probs, w.num_inputs)
        value, lam, iters = sub_res.capacity, _least_multiplier(w, p, cost), sub_res.iterations
        steps, path = 0, "pinned face"
    else:
        p, value, lam, iters, steps, path = _ba_tilted(w, cost)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("constrained_capacity (%s): %d alternating iterations, %d Newton steps, "
                  "certified gap %.3g, multiplier %.12g",
                  path, iters, steps, _dual_bound(w, p, cost, lam) - value, lam)
    return CapacityResult(max(value, 0.0), InputDist(p), lam,
                          kt_verify(w, InputDist(p), cost, lam)[1], iters + steps)


def _least_multiplier(w: Dmc, p: np.ndarray, cost: CostSpec) -> float:
    """The least lam >= 0 minimizing ``_dual_bound`` at p, max_x (D_x + lam (gamma - c(x))).

    That is convex and piecewise linear in lam, so least at 0 or where two of
    its lines cross; a letter of infinite D drops below only as lam -> inf.
    """
    d, slope = _divergences(p, w), cost.budget - cost.costs
    if not np.isfinite(d).all():
        return math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        lams = (d[:, None] - d) / (slope - slope[:, None])
    lams = np.sort(np.append(0.0, lams[np.isfinite(lams) & (lams > 0.0)]))
    return float(lams[np.argmin((d + lams[:, None] * slope).max(axis=1))])


def kt_verify(
    w: Dmc,
    p: InputDist,
    cost: CostSpec | None,
    lambda0: float,
    tol: float = DEFAULT_KT_TOL,
):
    """Kuhn-Tucker check: the score D(W(.|x) || PW) - lambda0 (c(x) - gamma) is <= I(P,W).

    Equality must hold within tol on the optimal letters S*, those whose score
    (``_kt_score``) is within tol of its max; so a letter the solver left a
    vanishing mass on stays out.  Returns ``(passed, worst_slack)`` where the
    slack, score - I(P,W), is the largest signed violation over both clauses.
    """
    if cost is None:
        cost = CostSpec.free(w.num_inputs)
    score = _kt_score(_divergences(p.probs, w), cost, lambda0)
    slack = score - mutual_information(p, w)
    worst = float(np.where(score >= score.max() - tol, np.abs(slack), slack).max())
    return worst <= tol, worst


def _dual_bound(w: Dmc, p: np.ndarray, cost: CostSpec, lam: float) -> float:
    """max_x of ``_kt_score`` at p: for any p and lam in [0, +inf], >= the capacity."""
    return float(_kt_score(_divergences(p, w), cost, lam).max())


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

    The polytope is {P >= 0 : supp P in S*, PW = q*}, where q* comes from one
    ``constrained_capacity`` solve and S* from its input at the multiplier of
    ``_least_multiplier``, cut by the budget: E c(X) = gamma when it binds
    (solver multiplier > 0), else E c(X) + s = gamma with a slack s >= 0.  Its
    vertices are the basic solutions over rank-sized column subsets; one is
    kept when it is nonnegative within ``DEFAULT_KT_TOL`` and achieves the
    capacity within ``DEFAULT_TOL``.  The solver's q* may miss the span of S*
    by its tolerance, so each basic solution is a least-squares one, tilted
    (``_tilt``) back onto the budget.  Raises ``EnumerationCapError`` when the
    number of subsets exceeds ``ENUM_CAP``.
    """
    if cost is None:
        cost = CostSpec.free(w.num_inputs)
    base = constrained_capacity(w, cost)
    p_star = base.optimal_input.probs
    q_star = p_star @ w.rows
    score = _kt_score(_divergences(p_star, w), cost, _least_multiplier(w, p_star, cost))
    letters = np.flatnonzero(score >= score.max() - DEFAULT_KT_TOL)  # S*, as in kt_verify
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
        p = _tilt(p, cost.costs, cost.budget)[0]  # round-off can move p over the budget
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
