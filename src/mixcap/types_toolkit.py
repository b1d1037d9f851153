"""Type classes, the expurgated parameter space, and decomposition checks.

Everything here works type-wise: membership conditions and tail statistics
that depend on sequences only through their (joint) type are evaluated once
per type with exact multiplicities, never per sequence.  One enumerator,
``enumerate_types``, lists the types as rows of an int array; a joint type
is a type over the letter pairs, flattened row-major.  Every statistic is
computed for all types at once: sums of counts times log-probabilities,
log-multinomials from one table of log k!, and log-sum-exps over atoms or
over the joint types of one output type.  This keeps the desk-scale
validations (small n, small alphabets) exact and fast.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .channel import CostSpec, Dmc, InputDist, MixedChannel, SlackParams, log_density

ENUM_CAP = 10**6
CELL_CAP = 3 * 10**7  # entries of one type table, rows times symbols


class EnumerationCapError(RuntimeError):
    """Raised when a type enumeration would exceed the configured cap."""


class TypeClass:
    """Integer composition of a blocklength over the input alphabet."""

    __slots__ = ("counts", "n")

    def __init__(self, counts, n: int):
        counts = np.array(counts, dtype=int)
        counts.setflags(write=False)
        if counts.ndim != 1 or np.any(counts < 0):
            raise ValueError("counts must be a nonnegative integer vector")
        if int(counts.sum()) != n:
            raise ValueError(f"counts sum to {int(counts.sum())}, expected n = {n}")
        self.counts, self.n = counts, n

    @property
    def fractions(self) -> np.ndarray:
        return self.counts / self.n

    def canonical_word(self) -> np.ndarray:
        """A representative sequence of this composition (sorted symbols)."""
        return np.repeat(np.arange(len(self.counts)), self.counts)


class ExpurgationReport:
    __slots__ = ("member_mask", "mass", "bound", "n")

    def __init__(self, member_mask: tuple, mass: float, bound: float, n: int):
        if mass < bound - 1e-12:
            raise ValueError("expurgated mass below its guaranteed bound")
        self.member_mask, self.mass, self.bound, self.n = member_mask, mass, bound, n


def quantized_type(p0: InputDist, n: int, cost: CostSpec | None = None) -> TypeClass:
    """Round a target distribution to a type without exceeding its cost.

    Letters are ordered by decreasing cost; every letter but the cheapest gets
    the floor of n P0(x), and the cheapest absorbs the remainder.  The result
    costs no more than P0 and deviates from it by at most |X|/n per letter.
    """
    k = p0.size
    if cost is None:
        cost = CostSpec.free(k)
    if len(cost.costs) != k:
        raise ValueError("cost vector length does not match the distribution")
    order = sorted(range(k), key=lambda x: -cost.costs[x])  # stable: ties keep index order
    counts = np.zeros(k, dtype=int)
    used = 0
    for x in order[:-1]:
        counts[x] = int(math.floor(n * p0.probs[x]))
        used += counts[x]
    counts[order[-1]] = n - used
    return TypeClass(counts, n)


def count_types(num_symbols: int, n: int) -> int:
    return math.comb(n + num_symbols - 1, num_symbols - 1)


def enumerate_types(num_symbols: int, n: int) -> np.ndarray:
    """All compositions of n into num_symbols parts, one per row.

    Stars and bars: the positions of num_symbols - 1 bars among n + num_symbols - 1
    slots come from ``itertools.combinations`` and the parts are the gaps
    between them.  Lexicographic order, first part slowest.  The count is
    checked against ``ENUM_CAP``, and the table's size against ``CELL_CAP``,
    before anything is allocated.
    """
    total = count_types(num_symbols, n)
    if total > ENUM_CAP:
        raise EnumerationCapError(f"{total} types exceed the cap {ENUM_CAP}")
    if total * num_symbols > CELL_CAP:
        raise EnumerationCapError(f"{total} types of {num_symbols} symbols exceed the "
                                  f"cap of {CELL_CAP} table cells")
    if num_symbols == 1:  # combinations would still copy its pool of n slots
        return np.array([[n]])
    bars = num_symbols - 1
    pos = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(n + bars), bars)),
                      dtype=int, count=total * bars)
    return np.diff(pos.reshape(total, bars), axis=1, prepend=-1, append=n + bars) - 1


def log_factorials(counts: np.ndarray) -> np.ndarray:
    """log k! at every entry of a nonnegative int array, from one lgamma per integer
    between its smallest and largest entry (for a count table, the counts that occur)."""
    lo, hi = int(counts.min()), int(counts.max())
    return np.array([math.lgamma(k + 1) for k in range(lo, hi + 1)])[counts - lo]


def _counts_log(counts: np.ndarray, log_table: np.ndarray) -> np.ndarray:
    """counts @ log_table.T (types by table rows), with 0 * (-inf) treated as 0."""
    finite = np.isfinite(log_table)
    out = counts @ np.where(finite, log_table, 0.0).T
    out[(counts > 0) @ ~finite.T] = -np.inf
    return out


def _logsumexp(vals: np.ndarray, groups=None, num_groups: int = 1) -> np.ndarray:
    """log sum exp over the rows of ``vals`` within each group (all rows by default).

    Returns one row per group; -inf where every entry of a group is -inf.
    """
    if groups is None:
        groups = np.zeros(len(vals), dtype=int)
    hi = np.full((num_groups,) + vals.shape[1:], -np.inf)
    np.maximum.at(hi, groups, vals)
    hi[~np.isfinite(hi)] = 0.0
    total = np.zeros_like(hi)
    np.add.at(total, groups, np.exp(vals - hi[groups]))
    with np.errstate(divide="ignore"):  # log 0 = -inf for an all -inf group
        return hi + np.log(total)


def _reference_laws(mixed: MixedChannel, q_list) -> Dmc:
    """The per-atom reference outputs as one channel from atoms to outputs."""
    refs = Dmc(np.asarray(q_list, dtype=float))
    if refs.rows.shape != (mixed.num_atoms, mixed.num_outputs):
        raise ValueError("need one output distribution per atom")
    return refs


def _log_laws(log_laws: np.ndarray, counts: np.ndarray, weights: np.ndarray):
    """Per-type log-probabilities of each atom's law (types by atoms), and of their mixture."""
    log_each = _counts_log(counts, log_laws.reshape(len(log_laws), -1))
    return log_each, _logsumexp((np.log(weights) + log_each).T)[0]


def _dominated(weights: np.ndarray, log_laws: np.ndarray, counts: np.ndarray,
               slack: float) -> np.ndarray:
    """Atoms whose law stays within exp(slack) of the mixture law at every count vector."""
    log_each, log_mix = _log_laws(log_laws, counts, weights)
    return np.all(log_each <= slack + log_mix[:, None] + 1e-12, axis=0)


def expurgated_space(mixed: MixedChannel, q_list, n: int) -> ExpurgationReport:
    """Per-atom membership in the dominated parameter set at blocklength n.

    An atom is a member when its n-letter product output law never exceeds
    exp(n^(1/4)) times the mixture law (checked per output type) and its
    n-letter channel law never exceeds exp(n^(1/4)) times the mixture channel
    (checked per joint type, a type over the kx * ky letter pairs).
    """
    kx, ky = mixed.num_inputs, mixed.num_outputs
    slack = n ** 0.25
    refs = _reference_laws(mixed, q_list)
    member = _dominated(mixed.weights, refs.log_rows, enumerate_types(ky, n), slack)
    member &= _dominated(mixed.weights, mixed.log_rows, enumerate_types(kx * ky, n), slack)
    mass = float(np.sum(mixed.weights[member]))
    try:
        bound = 1.0 - 2.0 * (n + 1) ** (kx * ky) * math.exp(-slack)
    except OverflowError:  # (n + 1)^(kx ky) past the float range: the bound is vacuous
        bound = -math.inf
    return ExpurgationReport(tuple(bool(b) for b in member), mass, bound, n)


def _tails(stat: np.ndarray, probs: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """The total of ``probs`` over the entries with stat <= t, for each threshold t."""
    order = np.argsort(stat, kind="stable")
    cum = np.concatenate(([0.0], np.cumsum(probs[order])))
    return cum[np.searchsorted(stat[order], thresholds, side="right")]


class DecompositionFailure(NamedTuple):
    inequality: str  # "upper" or "lower"
    atom: int
    z: float
    lhs: float
    rhs: float


class DecompositionReport(NamedTuple):
    passed: bool
    failures: tuple
    n: int
    gamma_slack: float
    expurgation: ExpurgationReport
    z_grid: tuple

    @property
    def member_atoms(self) -> tuple:
        return tuple(i for i, m in enumerate(self.expurgation.member_mask) if m)


def decomposition_check(
    mixed: MixedChannel,
    composition: TypeClass,
    q_list,
    n: int,
    slack: SlackParams,
    z_grid,
) -> DecompositionReport:
    """Exact verification of the two decomposition inequalities.

    The input is uniform on the sequences of the given composition.  For every
    atom in the dominated set and every grid threshold the mixed-law tail is
    compared against the shifted component-law tail: the upper inequality
    bounds the mixed statistic against the component's own output law, the
    lower one against the supplied per-atom reference outputs, which must
    dominate the component on the composition's letters (else
    ``DominationError``).  All tails are exact sums over the joint types whose
    row sums are the composition; those of zero probability under an atom's
    channel are left out of its statistics.
    """
    if composition.n != n:
        raise ValueError("composition blocklength does not match n")
    gamma = slack.gamma_slack
    shift = gamma / math.sqrt(n) + n ** -0.75
    leak = math.exp(-math.sqrt(n) * gamma)
    expur = expurgated_space(mixed, q_list, n)
    members = [i for i, m in enumerate(expur.member_mask) if m]
    m_counts = composition.counts
    refs = _reference_laws(mixed, q_list)

    # the joint types with the composition as row sums: the rows' types, crossed
    rows = [enumerate_types(mixed.num_outputs, int(m)) for m in m_counts]
    picks = np.indices([len(r) for r in rows]).reshape(len(rows), -1)
    joints = np.stack([r[i] for r, i in zip(rows, picks)], axis=1)  # joint x input x output
    flat = joints.reshape(len(joints), -1)
    log_fact_joint = log_factorials(flat).sum(axis=1)
    out_types, of = np.unique(joints.sum(axis=1), axis=0, return_inverse=True)
    of = of.reshape(-1)  # numpy 2.0.0 returns it 2-D

    # per joint type and atom: log W_k^n(y|x) for x of the composition, and the
    # n-letter information density of W_k against q_k^n
    log_wn, log_mix_wn = _log_laws(mixed.log_rows, flat, mixed.weights)
    log_dens_n = _counts_log(flat, np.stack([
        log_density(m_counts, comp, q).reshape(-1)
        for comp, q in zip(mixed.components, refs.rows)]))
    # probability that the joint type of (x, Y_k) is J
    log_fact_comp = log_factorials(m_counts).sum()
    log_pr = log_fact_comp - log_fact_joint[:, None] + log_wn
    # per output type and atom: log P_{Y_k^n}(y) for y of that type, the
    # multinomial of the columns counting the x-sequences of the composition
    log_col = log_factorials(out_types).sum(axis=1)[of] - log_fact_joint
    log_t_size = math.lgamma(n + 1) - log_fact_comp
    log_py = _logsumexp(log_col[:, None] + log_wn, of, len(out_types)) - log_t_size
    log_py_mix = _logsumexp((np.log(mixed.weights) + log_py).T)[0]
    _, log_qn_mix = _log_laws(refs.log_rows, out_types, mixed.weights)

    zs = np.asarray(z_grid, dtype=float)
    failures = []
    for k in members:
        keep = np.isfinite(log_wn[:, k])
        pr, t = np.exp(log_pr[keep, k]), of[keep]
        lhs_u = _tails(log_mix_wn[keep] - log_py_mix[t], pr, zs * n + 1e-12)
        rhs_u = _tails(log_wn[keep, k] - log_py[t, k], pr, (zs + shift) * n + 1e-12) + leak
        lhs_l = _tails(log_mix_wn[keep] - log_qn_mix[t], pr, zs * n + 1e-12)
        rhs_l = _tails(log_dens_n[keep, k], pr, (zs - shift) * n + 1e-12) - leak
        for i, z in enumerate(zs):
            if lhs_u[i] > rhs_u[i] + 1e-10:
                failures.append(DecompositionFailure("upper", k, float(z), float(lhs_u[i]),
                                                     float(rhs_u[i])))
            if lhs_l[i] < rhs_l[i] - 1e-10:
                failures.append(DecompositionFailure("lower", k, float(z), float(lhs_l[i]),
                                                     float(rhs_l[i])))

    return DecompositionReport(not failures, tuple(failures), n, gamma,
                               expur, tuple(float(z) for z in z_grid))


def mixture_converse_enumeration(mixed: MixedChannel, composition: TypeClass,
                                 q_list, rate: float, eta: float) -> float:
    """Brute-force value of the mixture converse bound over all output words.

    Enumerates every y-sequence; intended for desk-scale cross-checks of the
    exact spectrum tails.
    """
    n = composition.n
    ky = mixed.num_outputs
    if ky**n > 2**20:
        raise EnumerationCapError(f"|Y|^n = {ky**n} too large to enumerate")
    x_word = composition.canonical_word()
    total = 0.0
    thresh = (rate - eta) * n + 1e-9
    for k, (w_k, comp) in enumerate(mixed.atoms):
        q = np.asarray(q_list[k], dtype=float)
        tail = 0.0
        for y in itertools.product(range(ky), repeat=n):
            py = 1.0
            stat = 0.0
            dominated = True
            for xi, yi in zip(x_word, y):
                wv = comp.rows[xi, yi]
                py *= wv
                if py == 0.0:
                    break
                if q[yi] <= 0.0:
                    dominated = False
                    break
                stat += math.log(wv) - math.log(q[yi])
            if py == 0.0:
                continue
            if not dominated:
                raise ValueError("reference output fails to dominate a positive-probability word")
            if stat <= thresh:
                tail += py
        total += w_k * tail
    return min(max(total - math.exp(-n * eta), 0.0), 1.0)
