"""First-order coding rates of a mixed channel.

The core object is the quantile of a weighted value list: the largest value
whose strictly-below mass stays within the error budget.  The capacity is the
sup of that quantile over feasible inputs, the largest compound-channel
capacity of an atom set the budget cannot drop, certified by a bracket; a
capacity-ordered family takes the same search after its ordering check.
"""

from __future__ import annotations

import logging
import math
from typing import NamedTuple

import numpy as np

from .channel import SUM_TOL, CostSpec, Dmc, InputDist, MixedChannel, _divergences, informations
from .optimizer import (DEFAULT_TOL, _dual_bound, _newton_on_face,
                        capacity_achieving_set, constrained_capacity)
from .types_toolkit import ENUM_CAP, EnumerationCapError

log = logging.getLogger(__name__)

VALUE_DECIMALS = 12  # atoms with values closer than 1e-12 merge in quantiles

# cutting planes: oracle solves per atom set, master pivot slack, and the kink polish's band
MAX_ROUNDS, LP_TOL = 60, 1e-12
KINK_BAND = 1e-7


def rate_spectrum(values, weights) -> tuple:
    """(sorted distinct values, mass strictly below each), values rounded to VALUE_DECIMALS."""
    distinct, inverse = np.unique(np.round(np.asarray(values, dtype=float), VALUE_DECIMALS),
                                  return_inverse=True)
    mass = np.bincount(inverse, weights)
    return distinct, np.concatenate(([0.0], np.cumsum(mass)[:-1]))


def _quantile(values, weights, eps: float) -> tuple:
    """(q, w{value < q}, w{value <= q}), q the largest value whose strictly-below mass is
    <= eps; a mass within ``SUM_TOL`` above eps counts as eps (0.1 + 0.2 against 0.3)."""
    distinct, below = rate_spectrum(values, weights)
    k = int(np.searchsorted(below, eps + SUM_TOL, side="right")) - 1
    at = float(below[k + 1]) if k + 1 < len(below) else 1.0
    return float(distinct[k]), float(below[k]), at


class EpsCapacityResult(NamedTuple):
    capacity: float
    argmax_input: InputDist
    achieving_component: int | None = None
    mass_below: float = 0.0
    mass_at_or_below: float = 1.0
    upper_bound: float = math.inf  # certified: the true eps-capacity is at most this
    winners: tuple = ()  # per winning atom set, the inputs a second-order sup runs over


def _check_eps(eps: float) -> None:
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")


def rate_quantile(mixed: MixedChannel, p: InputDist, eps: float) -> float:
    """sup{R : w{theta : I(P, W_theta) < R} <= eps} for a fixed input P."""
    _check_eps(eps)
    return _quantile(informations(p.probs, mixed.rows, mixed.log_rows), mixed.weights, eps)[0]


def _game(g: np.ndarray) -> tuple:
    """(lam, mu): lam in the simplex minimizing max_i (g lam)_i, mu maximizing min_k (mu g)_k.

    A tableau simplex, Bland's rule, solves max 1.x s.t. (g + shift) x <= 1, x >= 0 from the
    slack basis; lam is x and mu the slacks' reduced costs (the dual's y), each normalized."""
    n, m = g.shape
    t = np.block([[g + (1.0 - g.min()), np.eye(n), np.ones((n, 1))],
                  [-np.ones(m), np.zeros(n + 1)]])
    basis = np.arange(m, m + n)
    while (t[n, :-1] < -LP_TOL).any():
        j = np.argmax(t[n, :-1] < -LP_TOL)  # the first improving column enters
        rows = np.flatnonzero(t[:n, j] > LP_TOL)
        ratio = t[rows, -1] / t[rows, j]
        rows = rows[ratio <= ratio.min() + LP_TOL]
        i = rows[np.argmin(basis[rows])]  # the least basic column of the ratio ties leaves
        t[i] /= t[i, j]
        t -= np.outer(t[:, j] - np.eye(n + 1)[i], t[i])
        basis[i] = j
    lam = np.clip(np.bincount(basis, t[:n, -1], m + n)[:m], 0.0, None)
    mu = np.clip(t[n, m:-1], 0.0, None)
    return lam / lam.sum(), mu / mu.sum()


def _polish(rows, log_rows, cuts: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """mu @ cuts after Newton steps on the positive mu that equalize the kink's informations.

    Those within KINK_BAND of the least go to within KINK_TOL of each other
    (``_newton_on_face``); d I_theta / d mu_k = sum_x (cuts_k - P)(x) D(W_theta(.|x) || P W_theta).
    """
    def kink(z):
        p = z @ cuts
        info = informations(p, rows, log_rows)
        at = info <= info.min() + KINK_BAND
        used = p > 0.0  # no cut moves an unused letter, whose D may be inf
        d = _divergences(rows[at], log_rows[at], p @ rows[at])[:, used]
        return info[at], d @ (cuts[z > 0.0] - p)[:, used].T

    mu = _newton_on_face(kink, mu)[0]
    return mu @ cuts / mu.sum()


def _compound(rows, log_rows, cuts: np.ndarray, hi: float, cost: CostSpec):
    """(lo, hi, P, solves): a bracket on max_P min_theta I(P, W_theta), by cutting planes.

    By minimax duality it is the min over lam of C([lam_1 W_1 | ... | lam_m W_m]): one
    ``_game`` solve per round picks lam and a cut mix mu, a feasible input, and a
    ``constrained_capacity`` on that stacked channel adds a cut and an upper bound.
    """
    g = np.array([informations(p, rows, log_rows) for p in cuts])
    lo = -math.inf
    for solves in range(MAX_ROUNDS + 1):
        lam, mu = _game(g)
        p = mu @ cuts / mu.sum()
        info = informations(p, rows, log_rows)
        if info.min() > lo:
            lo, best = info.min(), (cuts, mu)
        if hi - lo <= DEFAULT_TOL or solves == MAX_ROUNDS:
            break
        stacked = Dmc(np.hstack(lam[lam > 0.0, None, None] * rows[lam > 0.0]))
        res = constrained_capacity(stacked, cost)
        hi = min(hi, _dual_bound(stacked, res.optimal_input.probs, cost, res.multiplier))
        cuts = np.vstack([cuts[mu > 0.0], res.optimal_input.probs])
        g = np.vstack([g[mu > 0.0], informations(cuts[-1], rows, log_rows)])
    p = _polish(rows, log_rows, *best)
    return min(lo, informations(p, rows, log_rows).min()), hi, InputDist(p), solves


def _levels(weights, ubs, eps: float, walked: list):
    """(u, its atoms of bound >= u, the minimal atom sets whose least bound is u), per
    distinct bound u, highest first, but for levels that drop more than eps.

    A minimal set S has w(S^c) <= eps, masses summed in index order and compared within
    ``SUM_TOL``, and passes eps if it drops any atom of S too.  Level u drops the atoms of
    bound below u; its sets come sorted, as asked, from a walk in index order that keeps an
    atom before it drops it, while the weight to come can still make S minimal and fit.
    Its steps go to ``walked``; past ``ENUM_CAP`` of them it raises EnumerationCapError.
    """
    w, b, n, budget = weights.tolist(), ubs.tolist(), len(weights), eps + SUM_TOL
    slack = n * 2.0 ** -50  # covers the rounding of a suffix sum against the walk's sum

    def sets(u: float):
        rest, every = (np.append(np.cumsum(a[::-1])[::-1], 0.0).tolist()
                       for a in (np.where(ubs < u, weights, 0.0), weights))  # from atom j on
        walked.append(0)
        stack = [(0, 0.0, math.inf, ())]  # (next atom, dropped mass, lightest kept, kept)
        while stack:
            j, mass, light, kept = stack.pop()
            walked[-1] += 1
            if walked[-1] > ENUM_CAP:
                raise EnumerationCapError(f"the atom sets of bound level {u:.12g} take more "
                                          f"than {ENUM_CAP} walk steps")
            while j < n and b[j] < u:
                mass, j = mass + w[j], j + 1
            if j == n:
                if mass <= budget < mass + light and any(b[t] == u for t in kept):
                    yield kept  # S keeps an atom of bound u
            elif mass + rest[j] <= budget + slack and mass + every[j] + light > budget - slack:
                stack += [(j + 1, mass + w[j], light, kept),  # the keep branch is popped first
                          (j + 1, mass, min(light, w[j]), kept + (j,))]

    for u in sorted(set(b), reverse=True):
        if sum(weights[ubs < u].tolist()) <= budget:  # in index order, as the walk sums it
            yield u, tuple(np.flatnonzero(ubs >= u).tolist()), sets(u)


def eps_capacity(mixed: MixedChannel, cost: CostSpec | None = None, eps: float = 0.0,
                 _rep_sets=None) -> EpsCapacityResult:
    """First-order capacity: the largest compound capacity of an atom set, bracketed.

    The rate quantile at P is max over sets S with w(S^c) <= eps of min_{theta in S}
    I(P, W_theta), so C_eps is the max over minimal S of the compound capacity of S
    (Blackwell, Breiman & Thomasian 1959; Ahlswede 1968).  Atoms with equal rows merge,
    their weights summed in index order.  Sets come best-first by their bound, the least
    certified C_theta over S, one walk per level (``_levels``, capped at ENUM_CAP steps),
    until a bound is below the best value found.  A set of bound u is settled by a vertex
    of its least-bound atom holding it within DEFAULT_TOL of u, or by ``_compound``; a
    union settled so settles its level.  ``_rep_sets``: known ``capacity_achieving_set``s.
    """
    _check_eps(eps)
    if cost is None:
        cost = CostSpec.free(mixed.num_inputs)
    cost.check_feasible()
    n, comps, weights = mixed.num_atoms, mixed.components, mixed.weights
    rep_sets = _rep_sets or [capacity_achieving_set(w, cost) for w in comps]
    ubs = [_dual_bound(w, rs.solve.optimal_input.probs, cost, rs.solve.multiplier)
           for w, rs in zip(comps, rep_sets)]
    def score(s):  # (least I over s at the best vertex of its least-bound atom, that vertex, all)
        verts, at = rep_sets[min(s, key=lambda t: ubs[t])].representatives, list(s)
        lows = [informations(v.probs, mixed.rows[at], mixed.log_rows[at]).min() for v in verts]
        return max(lows), verts[int(np.argmax(lows))], verts

    first = {}  # the first atom of each distinct row stack, in index order
    group = np.array([first.setdefault(rows.tobytes(), k) for k, rows in enumerate(mixed.rows)])
    reps = list(first.values())
    merged = np.array([sum(weights[group == k].tolist()) for k in reps])  # in index order
    best_lo, hi, found, stop = -math.inf, -math.inf, [], None
    oracle, capped, walked = 0, 0, []  # oracle solves, sets left open at MAX_ROUNDS, walk steps
    for u, union, sets in _levels(merged, np.array(ubs)[reps], eps, walked):
        if u < best_lo:
            stop = stop or f"stopped at bound {u:.12g} below lower bound {best_lo:.12g}"
            break
        # each set of the level lies in its union and holds an atom of bound u, so its
        # compound capacity is in [C(union), u]: a union settled by a vertex settles the level
        if score([reps[i] for i in union])[0] >= u - DEFAULT_TOL:
            sets = [union]
        for s in sets:
            if u < best_lo:  # a vertex may read a bound's last digit above it
                stop = f"stopped within bound {u:.12g} below lower bound {best_lo:.12g}"
                break
            s = tuple(reps[i] for i in s)
            s_lo, p, verts = score(s)
            if s_lo >= u - DEFAULT_TOL:  # s_lo <= C(s) <= u
                s_hi, how = u, "a vertex of its atom of least bound"
            else:
                cuts = np.array([rep_sets[t].solve.optimal_input.probs for t in s] + [p.probs])
                s_lo, s_hi, p, solves = _compound(mixed.rows[list(s)], mixed.log_rows[list(s)],
                                                  cuts, u, cost)
                left_open = bool(solves == MAX_ROUNDS and s_hi - s_lo > DEFAULT_TOL)
                oracle, capped = oracle + solves, capped + left_open
                verts, how = (p,), (f"cutting planes, {solves + 1} rounds, {solves} oracle "
                                    f"solves{', left open at the round cap' if left_open else ''}")
            log.debug("eps-capacity set %s by %s: [%.12g, %.12g]", s, how, s_lo, s_hi)
            best_lo, hi = max(best_lo, s_lo), max(hi, s_hi)
            info = informations(p.probs, mixed.rows, mixed.log_rows)
            found.append((_quantile(info, weights, eps), p, verts, u))
    (value, below, at), p, *_ = max(found, key=lambda f: f[0][0])  # the first set at the max
    log.debug("eps-capacity: %d sets settled over %d bound levels, %d duplicate atoms merged, "
              "%s; bracket [%.12g, %.12g]; %d oracle solves, %d sets left open at the round "
              "cap; at most %d walk steps in one level (cap %d)", len(found),
              len({f[3] for f in found}), n - len(reps), stop or "all levels visited", value,
              hi, oracle, capped, max(walked, default=0), ENUM_CAP)
    return EpsCapacityResult(value, p, None, below, at, max(hi, value),
                             tuple(f[2] for f in found if f[0][0] == value))


def eps_capacity_well_ordered(mixed: MixedChannel, cost: CostSpec | None = None,
                              eps: float = 0.0) -> EpsCapacityResult:
    """``eps_capacity`` after ``require_well_ordered`` (which raises NotWellOrderedError),
    on that check's component solves, with the first component whose capacity rounds
    nearest the value: for an ordered family C_eps is a quantile of the capacities."""
    _check_eps(eps)
    from .well_ordered import require_well_ordered  # well_ordered imports this module

    rep_sets = require_well_ordered(mixed, cost).rep_sets
    res = eps_capacity(mixed, cost, eps, rep_sets)
    caps = np.round([rs.solve.capacity for rs in rep_sets], VALUE_DECIMALS)
    return res._replace(achieving_component=int(np.argmin(np.abs(caps - res.capacity))))
