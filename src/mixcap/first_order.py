"""First-order coding rates of a mixed channel.

The core object is the quantile of a weighted value list: the largest value
whose strictly-below mass stays within the error budget.  The capacity is the
sup of that quantile over feasible inputs, the largest compound-channel
capacity of an atom set the budget cannot drop, certified by a bracket; for
capacity-ordered components it is the quantile over component capacities.
"""

from __future__ import annotations

import logging
import math
from typing import NamedTuple

import numpy as np

from .channel import SUM_TOL, CostSpec, Dmc, InputDist, MixedChannel, _divergences, informations
from .optimizer import (DEFAULT_TOL, CapacityResult, _dual_bound, _newton_on_face,
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


def rate_quantile(mixed: MixedChannel, p: InputDist, eps: float) -> float:
    """sup{R : w{theta : I(P, W_theta) < R} <= eps} for a fixed input P."""
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
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
    ``_game`` solve per round picks lam and a cut mix mu, a feasible input, and a warm-started
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
        res = constrained_capacity(stacked, cost, _start=p)
        hi = min(hi, _dual_bound(stacked, res.optimal_input.probs, cost, res.multiplier))
        cuts = np.vstack([cuts[mu > 0.0], res.optimal_input.probs])
        g = np.vstack([g[mu > 0.0], informations(cuts[-1], rows, log_rows)])
    p = _polish(rows, log_rows, *best)
    return min(lo, informations(p, rows, log_rows).min()), hi, InputDist(p), solves


def _minimal_sets(weights, eps: float) -> list:
    """The minimal atom sets S with w(S^c) <= eps, as index tuples: dropping any atom of
    S too passes eps.  Masses are compared with eps within ``SUM_TOL``.

    Entry m of each table covers the atoms of bit mask m: their summed weight
    (in index order) and their lightest weight.  Mask m drops its atoms and
    keeps those of ~m; the last mask, which keeps none, is left out.
    """
    mass, light = np.zeros(1), np.full(1, math.inf)
    for w in weights:
        mass, light = np.append(mass, mass + w), np.append(light, np.minimum(light, w))
    minimal = (mass <= eps + SUM_TOL) & (mass + light[::-1] > eps + SUM_TOL)
    return [tuple(j for j in range(len(weights)) if not m >> j & 1)
            for m in np.flatnonzero(minimal[:-1])]


def eps_capacity(mixed: MixedChannel, cost: CostSpec | None = None,
                 eps: float = 0.0) -> EpsCapacityResult:
    """First-order capacity: the largest compound capacity of an atom set, bracketed.

    The rate quantile at P is max over sets S with w(S^c) <= eps of min_{theta in S}
    I(P, W_theta), so C_eps is the max over minimal S of the compound capacity of S
    (Blackwell, Breiman & Thomasian 1959; Ahlswede 1968).  A set is pruned by its bound,
    the least certified C_theta over S; settled by a vertex of its weakest component's
    optimal polytope that keeps all of S at or above that capacity; or by ``_compound``.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    if cost is None:
        cost = CostSpec.free(mixed.num_inputs)
    cost.check_feasible()
    n, comps, weights = mixed.num_atoms, mixed.components, mixed.weights
    if 2 ** n > ENUM_CAP:
        raise EnumerationCapError(f"{n} atoms: 2^{n} = {2 ** n} atom subsets exceed the cap "
                                  f"{ENUM_CAP}; a capacity-ordered family can use --well-ordered")
    rep_sets = [capacity_achieving_set(w, cost) for w in comps]
    caps = [rs.solve.capacity for rs in rep_sets]
    ubs = [_dual_bound(w, rs.solve.optimal_input.probs, cost, rs.solve.multiplier)
           for w, rs in zip(comps, rep_sets)]
    best_lo, hi, found, pruned = -math.inf, -math.inf, [], []
    for s in sorted(_minimal_sets(weights, eps), key=lambda s: (-min(ubs[t] for t in s), s)):
        s_hi = min(ubs[t] for t in s)
        if s_hi < best_lo:
            pruned.append(s)
            continue
        stack = mixed.rows[list(s)], mixed.log_rows[list(s)]
        weakest = min(s, key=lambda t: caps[t])
        verts = rep_sets[weakest].representatives
        scores = [informations(v.probs, *stack) for v in verts]
        j = max(range(len(verts)), key=lambda j: scores[j].min())
        if (np.delete(scores[j], s.index(weakest)) >= caps[weakest]).all():
            s_lo, p, how = scores[j].min(), verts[j], f"a vertex of component {weakest}"
        else:
            cuts = np.array([rep_sets[t].solve.optimal_input.probs for t in s] + [verts[j].probs])
            s_lo, s_hi, p, solves = _compound(*stack, cuts, s_hi, cost)
            verts, how = (p,), f"cutting planes, {solves + 1} rounds, {solves} oracle solves"
        log.debug("eps-capacity set %s by %s: [%.12g, %.12g]", s, how, s_lo, s_hi)
        best_lo, hi = max(best_lo, s_lo), max(hi, s_hi)
        info = informations(p.probs, mixed.rows, mixed.log_rows)
        found.append((_quantile(info, weights, eps), p, verts))
    (value, below, at), p, _ = max(found, key=lambda f: f[0][0])  # the first set at the max
    log.debug("eps-capacity: pruned %s; bracket [%.12g, %.12g]", pruned, value, hi)
    return EpsCapacityResult(value, p, None, below, at, max(hi, value),
                             tuple(verts for (v, _, _), _, verts in found if v == value))


def eps_capacity_well_ordered(
    mixed: MixedChannel,
    cost: CostSpec | None = None,
    eps: float = 0.0,
    optima: list[CapacityResult] | None = None,
) -> EpsCapacityResult:
    """Capacity via the quantile over component capacities.

    Valid when the component family is ordered by capacity: ``optima`` are the
    component solves of a passed ordering check, and without them the check
    runs here (``require_well_ordered``, which raises ``NotWellOrderedError``).
    No optimization over inputs is involved.  The solver capacities lie within
    ``DEFAULT_TOL`` below the true ones.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    if optima is None:
        from .well_ordered import require_well_ordered  # well_ordered imports this module

        optima = [rs.solve for rs in require_well_ordered(mixed, cost).rep_sets]
    value, below, at = _quantile([res.capacity for res in optima], mixed.weights, eps)
    # the first component whose capacity rounds to the quantile
    achieving = next(i for i, res in enumerate(optima)
                     if np.round(res.capacity, VALUE_DECIMALS) == value)
    return EpsCapacityResult(value, optima[achieving].optimal_input, achieving, below, at,
                             value + DEFAULT_TOL)
