"""Type classes, the expurgated parameter space, and decomposition checks.

Everything here works type-wise: membership conditions and tail statistics
that depend on sequences only through their (joint) type are evaluated once
per type with exact multiplicities, never per sequence.  This keeps the
desk-scale validations (small n, small alphabets) exact and fast.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import CostSpec, Dmc, InputDist, MixedChannel, SlackParams, log_density

ENUM_CAP = 10**6


class EnumerationCapError(RuntimeError):
    """Raised when a type enumeration would exceed the configured cap."""


@dataclass(frozen=True)
class TypeClass:
    """Integer composition of a blocklength over the input alphabet."""

    counts: np.ndarray
    n: int

    def __post_init__(self):
        counts = np.array(self.counts, dtype=int)
        counts.setflags(write=False)
        if counts.ndim != 1 or np.any(counts < 0):
            raise ValueError("counts must be a nonnegative integer vector")
        if int(counts.sum()) != self.n:
            raise ValueError(f"counts sum to {int(counts.sum())}, expected n = {self.n}")
        object.__setattr__(self, "counts", counts)

    @property
    def fractions(self) -> np.ndarray:
        return self.counts / self.n

    def canonical_word(self) -> np.ndarray:
        """A representative sequence of this composition (sorted symbols)."""
        return np.repeat(np.arange(len(self.counts)), self.counts)


@dataclass(frozen=True)
class ExpurgationReport:
    member_mask: tuple
    mass: float
    bound: float
    n: int

    def __post_init__(self):
        if self.mass < self.bound - 1e-12:
            raise ValueError("expurgated mass below its guaranteed bound")


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


def compositions(total: int, parts: int):
    """All tuples of ``parts`` nonnegative integers summing to ``total``.

    Lexicographic order, first part slowest; tie-breaking in the searches and
    the dedup of representatives depend on this order.
    """
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first, *rest)


def enumerate_types(num_symbols: int, n: int):
    """All compositions of n into num_symbols parts, as TypeClass objects."""
    total = count_types(num_symbols, n)
    if total > ENUM_CAP:
        raise EnumerationCapError(f"{total} types exceed the cap {ENUM_CAP}")
    assert total <= (n + 1) ** num_symbols
    out = [TypeClass(np.array(c, dtype=int), n) for c in compositions(n, num_symbols)]
    assert len(out) == total
    return out


def _logsumexp(vals: np.ndarray) -> float:
    hi = np.max(vals)
    if hi == -np.inf:
        return -np.inf
    return float(hi + np.log(np.sum(np.exp(vals - hi))))


def _dot_counts_log(counts: np.ndarray, logv: np.ndarray) -> float:
    """sum counts * logv over active cells, with 0 * (-inf) treated as 0."""
    counts = counts.reshape(-1)
    logv = logv.reshape(-1)
    active = counts > 0
    if np.any(~np.isfinite(logv[active])):
        return -np.inf
    return float(np.sum(counts[active] * logv[active]))


def _reference_laws(mixed: MixedChannel, q_list) -> Dmc:
    """The per-atom reference outputs as one channel from atoms to outputs."""
    refs = Dmc(np.asarray(q_list, dtype=float))
    if refs.rows.shape != (mixed.num_atoms, mixed.num_outputs):
        raise ValueError("need one output distribution per atom")
    return refs


def _dominated(weights: np.ndarray, log_laws, count_matrices, slack: float) -> np.ndarray:
    """Atoms whose law stays within exp(slack) of the mixture law at every count matrix."""
    logw = np.log(weights)
    member = np.ones(len(weights), dtype=bool)
    for counts in count_matrices:
        log_each = np.array([_dot_counts_log(counts, log_law) for log_law in log_laws])
        member &= log_each <= slack + _logsumexp(logw + log_each) + 1e-12
    return member


def expurgated_space(mixed: MixedChannel, q_list, n: int) -> ExpurgationReport:
    """Per-atom membership in the dominated parameter set at blocklength n.

    An atom is a member when its n-letter product output law never exceeds
    exp(n^(1/4)) times the mixture law (checked per output type) and its
    n-letter channel law never exceeds exp(n^(1/4)) times the mixture channel
    (checked per joint type).
    """
    kx, ky = mixed.num_inputs, mixed.num_outputs
    slack = n ** 0.25
    refs = _reference_laws(mixed, q_list)
    member = _dominated(mixed.weights, refs.log_rows,
                        (t.counts for t in enumerate_types(ky, n)), slack)
    member &= _dominated(mixed.weights, [comp.log_rows for comp in mixed.components],
                         _joint_count_matrices_total(kx, ky, n), slack)
    mass = float(np.sum(mixed.weights[member]))
    bound = 1.0 - 2.0 * (n + 1) ** (kx * ky) * math.exp(-slack)
    return ExpurgationReport(tuple(bool(b) for b in member), mass, bound, n)


def _joint_count_matrices_total(kx: int, ky: int, n: int):
    """All kx-by-ky nonnegative integer matrices summing to n."""
    total = count_types(kx * ky, n)
    if total > ENUM_CAP:
        raise EnumerationCapError(f"{total} joint types exceed the cap {ENUM_CAP}")
    for flat in compositions(n, kx * ky):
        yield np.array(flat, dtype=int).reshape(kx, ky)


def _joint_matrices_with_rows(row_sums, ky: int):
    """All count matrices with the given row sums."""
    per_row = []
    for m in row_sums:
        per_row.append([np.array(c, dtype=int)
                        for c in compositions(int(m), ky)])
    for rows in itertools.product(*per_row):
        yield np.stack(rows)


def _log_multinomial(total: int, parts) -> float:
    v = math.lgamma(total + 1)
    for p in parts:
        v -= math.lgamma(int(p) + 1)
    return v


@dataclass(frozen=True)
class DecompositionFailure:
    inequality: str  # "upper" or "lower"
    atom: int
    z: float
    lhs: float
    rhs: float


@dataclass(frozen=True)
class DecompositionReport:
    passed: bool
    failures: tuple
    n: int
    gamma_slack: float
    member_atoms: tuple
    z_grid: tuple


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
    ``DominationError``).  All tails are exact sums over joint types.
    """
    if composition.n != n:
        raise ValueError("composition blocklength does not match n")
    kx, ky = mixed.num_inputs, mixed.num_outputs
    gamma = slack.gamma_slack
    shift = gamma / math.sqrt(n) + n ** -0.75
    leak = math.exp(-math.sqrt(n) * gamma)
    expur = expurgated_space(mixed, q_list, n)
    members = [i for i, m in enumerate(expur.member_mask) if m]
    weights = mixed.weights
    logw = np.log(weights)
    m_counts = composition.counts
    log_t_size = _log_multinomial(n, m_counts)

    joints = list(_joint_matrices_with_rows(m_counts, ky))
    refs = _reference_laws(mixed, q_list)

    # per joint type: component log-probs of W_k^n(y|x), x of the composition
    log_wn = np.array([
        [_dot_counts_log(J, comp.log_rows) for J in joints]
        for comp in mixed.components
    ])
    # per joint type: the n-letter information density of W_k against q_k^n
    dens = [log_density(m_counts, comp, q) for comp, q in zip(mixed.components, refs.rows)]
    log_dens_n = np.array([[_dot_counts_log(J, d) for J in joints] for d in dens])
    log_mix_wn = np.array([_logsumexp(logw + log_wn[:, j]) for j in range(len(joints))])
    # probability that the joint type of (x, Y_k) equals J
    log_pr = np.array([
        [
            sum(_log_multinomial(int(m_counts[a]), J[a]) for a in range(kx)) + log_wn[k][j]
            for j, J in enumerate(joints)
        ]
        for k in range(mixed.num_atoms)
    ])

    # sequence-level output laws, indexed by output type
    out_types = {}
    for j, J in enumerate(joints):
        t = tuple(int(v) for v in J.sum(axis=0))
        out_types.setdefault(t, []).append(j)
    log_py = {}   # per (component, output type): log P_{Y_k^n}(y) for y of that type
    for t, idxs in out_types.items():
        col_mult = []
        for j in idxs:
            J = joints[j]
            col_mult.append(sum(_log_multinomial(t[b], J[:, b]) for b in range(ky)))
        for k in range(mixed.num_atoms):
            vals = np.array([col_mult[i] + log_wn[k][j] for i, j in enumerate(idxs)])
            log_py[(k, t)] = _logsumexp(vals) - log_t_size
    log_py_mix = {
        t: _logsumexp(np.array([logw[k] + log_py[(k, t)] for k in range(mixed.num_atoms)]))
        for t in out_types
    }
    log_qn = {
        t: np.array([_dot_counts_log(np.array(t), refs.log_rows[k])
                     for k in range(mixed.num_atoms)])
        for t in out_types
    }
    log_qn_mix = {t: _logsumexp(logw + log_qn[t]) for t in out_types}

    t_of = [tuple(int(v) for v in J.sum(axis=0)) for J in joints]

    def tail(stat: np.ndarray, probs_log: np.ndarray, z: float) -> float:
        mask = stat <= z * n + 1e-12
        if not np.any(mask):
            return 0.0
        return float(np.exp(_logsumexp(probs_log[mask])))

    failures = []
    for k in members:
        pr_k = log_pr[k]
        stat_upper_lhs = np.array([log_mix_wn[j] - log_py_mix[t_of[j]] for j in range(len(joints))])
        stat_upper_rhs = np.array([log_wn[k][j] - log_py[(k, t_of[j])] for j in range(len(joints))])
        stat_lower_lhs = np.array([log_mix_wn[j] - log_qn_mix[t_of[j]] for j in range(len(joints))])
        for z in z_grid:
            lhs_u = tail(stat_upper_lhs, pr_k, z)
            rhs_u = tail(stat_upper_rhs, pr_k, z + shift) + leak
            if lhs_u > rhs_u + 1e-10:
                failures.append(DecompositionFailure("upper", k, float(z), lhs_u, rhs_u))
            lhs_l = tail(stat_lower_lhs, pr_k, z)
            rhs_l = tail(log_dens_n[k], pr_k, z - shift) - leak
            if lhs_l < rhs_l - 1e-10:
                failures.append(DecompositionFailure("lower", k, float(z), lhs_l, rhs_l))

    return DecompositionReport(not failures, tuple(failures), n, gamma,
                               tuple(members), tuple(float(z) for z in z_grid))


def mixture_converse_enumeration(mixed: MixedChannel, composition: TypeClass,
                                 q_list, rate: float, eta: float) -> float:
    """Brute-force value of the mixture converse bound over all output words.

    Enumerates every y-sequence; intended for desk-scale cross-checks of the
    convolution path.
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
