"""Independent numpy references for the benchmark's output checks.

Nothing here imports mixcap: every number the checks compare against is
recomputed from the spec file with plain numpy, by a different algorithm
where one exists (type sums instead of pairwise convolution, a binomial sum
for BSC tails, a closed form for BSC capacities).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

TIE_TOL_LB = 1e-9       # at-rate band of the general second-order path
TIE_TOL_EXACT = 1e-7    # at-rate band of the capacity-ordered path
BOUNDARY_TOL = 1e-9     # tails include atoms within this of n z (documented CLI rule)


# ---------------------------------------------------------------------------
# spec files
# ---------------------------------------------------------------------------


class Spec:
    """A parsed spec file: weights, component matrices, costs and budget."""

    def __init__(self, doc: dict):
        atoms = [(a["weight"], np.array(a["rows"], dtype=float)) for a in doc.get("atoms", [])]
        gen = doc.get("generator")
        if gen is not None:
            for entry in gen["params"]:
                p = entry["p"]
                atoms.append((entry["weight"], np.array([[1.0 - p, p], [p, 1.0 - p]])))
        self.weights = np.array([w for w, _ in atoms])
        self.mats = [m for _, m in atoms]
        self.bsc_p = [e["p"] for e in gen["params"]] if gen is not None else None
        k = self.mats[0].shape[0]
        self.costs = np.array(doc["cost"], dtype=float) if "cost" in doc else np.zeros(k)
        gamma = doc.get("gamma", "unconstrained")
        self.gamma = None if gamma in (None, "unconstrained") else float(gamma)

    @property
    def num_inputs(self) -> int:
        return self.mats[0].shape[0]


# ---------------------------------------------------------------------------
# single-letter measures
# ---------------------------------------------------------------------------


def row_divergences(w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """D(W(.|x) || q) for every x (q is assumed to dominate every row)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(w > 0.0, w * (np.log(w) - np.log(q)[None, :]), 0.0)
    return terms.sum(axis=1)


def mutual_information(p: np.ndarray, w: np.ndarray) -> float:
    d = row_divergences(w, p @ w)
    return float(p[p > 0] @ d[p > 0])


def dispersion(p: np.ndarray, w: np.ndarray) -> float:
    """Average conditional variance of log W(y|x)/PW(y) under P."""
    q = p @ w
    total = 0.0
    for x in np.flatnonzero(p > 0):
        row = w[x]
        m = row > 0
        dens = np.log(row[m]) - np.log(q[m])
        mean = row[m] @ dens
        total += p[x] * float(row[m] @ (dens - mean) ** 2)
    return total


def binary_entropy(p: float) -> float:
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def bsc_capacity(p: float) -> float:
    return math.log(2.0) - binary_entropy(p)


class CapacityBracket:
    """Certified bracket [lo, hi] on a capacity, with the input reaching lo."""

    def __init__(self, lo: float, hi: float, p: np.ndarray):
        self.lo, self.hi, self.p = lo, hi, p


def blahut_arimoto(w: np.ndarray, tol: float = 1e-11,
                   max_iter: int = 400_000) -> CapacityBracket:
    """Plain Blahut-Arimoto.

    Every iterate certifies I(P) <= capacity <= max_x D(W(.|x) || PW), so the
    bracket is valid whether or not tol is reached.
    """
    k = w.shape[0]
    p = np.full(k, 1.0 / k)
    for _ in range(max_iter):
        score = row_divergences(w, p @ w)
        lo, hi = float(p @ score), float(score.max())
        if hi - lo <= tol:
            break
        p = p * np.exp(score - hi)
        p /= p.sum()
    return CapacityBracket(lo, hi, p)


def capacity(w: np.ndarray, costs: np.ndarray, gamma: float | None) -> CapacityBracket:
    """Capacity under a budget that does not bind at the unconstrained optimum.

    The benchmark's specs always carry such a budget (see specgen), so the
    cost tilt of the constrained problem is zero and the unconstrained
    bracket is the answer; a binding budget raises instead of being solved
    by untested code.
    """
    br = blahut_arimoto(w)
    if gamma is not None and float(br.p @ costs) > gamma - 1e-9:
        raise ValueError("the budget binds at the unconstrained optimum")
    return br


# ---------------------------------------------------------------------------
# quantiles and the second-order feasibility boundary
# ---------------------------------------------------------------------------


def weighted_quantile(values, weights, eps: float) -> float:
    """sup{R : w{value < R} <= eps}: the largest value whose strictly-below mass <= eps."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    best = -math.inf
    for v in values:
        if weights[values < v].sum() <= eps:
            best = max(best, float(v))
    return best


def gaussian_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def sup_feasible(base: float, gauss: list, step_mass: float, eps: float):
    """sup{S : base + step_mass 1{S >= 0} + sum w G(S / sqrt(V)) <= eps}.

    Returns (value, open_boundary); ``gauss`` holds (weight, variance > 0).
    Solved by bracketing and bisection on the nondecreasing left side.
    """
    def g(s: float, with_step: bool) -> float:
        return (base + (step_mass if with_step else 0.0)
                + sum(w * gaussian_cdf(s / math.sqrt(v)) for w, v in gauss))

    if base + step_mass + sum(w for w, _ in gauss) <= eps:
        return math.inf, False
    if base >= eps and (gauss or base > eps):
        return -math.inf, False
    if not gauss:
        return 0.0, True
    if g(0.0, True) <= eps:
        lo, hi = 0.0, 1.0
        while g(hi, True) <= eps:
            hi *= 2.0
        with_step = True
    elif g(0.0, False) <= eps:
        return 0.0, True
    else:
        lo, hi = -1.0, 0.0
        while g(lo, False) > eps:
            lo *= 2.0
        with_step = False
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid, with_step) <= eps:
            lo = mid
        else:
            hi = mid
    return lo, False


def classify(values, weights, r: float, tie_tol: float):
    """(mass strictly below r - tie_tol, indices within tie_tol of r)."""
    base = float(sum(w for v, w in zip(values, weights) if v < r - tie_tol))
    at = [i for i, v in enumerate(values) if abs(v - r) <= tie_tol]
    return base, at


def second_order_at(spec: Spec, p: np.ndarray, r: float, eps: float,
                    values, tie_tol: float):
    """sup_feasible at input p, atoms classified by ``values`` against r."""
    base, at = classify(values, spec.weights, r, tie_tol)
    gauss, step = [], 0.0
    for i in at:
        v = dispersion(p, spec.mats[i])
        if v > 0.0:
            gauss.append((spec.weights[i], v))
        else:
            step += spec.weights[i]
    return sup_feasible(base, gauss, step, eps), sum(spec.weights[i] for i in at)


# ---------------------------------------------------------------------------
# information-spectrum tails: binomial and multinomial type sums
# ---------------------------------------------------------------------------


def _log_factorials(n: int) -> np.ndarray:
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1)))))


def _compositions(n: int, parts: int) -> np.ndarray:
    """All count vectors of length ``parts`` summing to n (stars and bars)."""
    bars = np.array(list(itertools.combinations(range(n + parts - 1), parts - 1)),
                    dtype=np.int64).reshape(-1, parts - 1)
    edges = np.concatenate((np.full((len(bars), 1), -1), bars,
                            np.full((len(bars), 1), n + parts - 1)), axis=1)
    return np.diff(edges, axis=1) - 1


class SumLaw:
    """Exact law of the sum of n i.i.d. per-letter atoms, by type sums.

    The sum depends only on the count vector over the atoms, so the law is a
    multinomial pmf over count vectors (a binomial when there are two atoms).
    """

    def __init__(self, values, probs, n: int):
        values = np.asarray(values, dtype=float)
        probs = np.asarray(probs, dtype=float)
        keep = probs > 0
        values, probs = values[keep], probs[keep]
        counts = _compositions(n, len(values))
        lf = _log_factorials(n)
        logpmf = lf[n] - lf[counts].sum(axis=1) + counts @ np.log(probs)
        sums = counts @ values
        order = np.argsort(sums, kind="stable")
        self.sums = sums[order]
        self.cdf = np.cumsum(np.exp(logpmf[order]))
        self.n = n

    def tail(self, z: float) -> float:
        """P{sum <= n z}, atoms within BOUNDARY_TOL of n z included."""
        idx = np.searchsorted(self.sums, z * self.n + BOUNDARY_TOL, side="right")
        return float(self.cdf[idx - 1]) if idx else 0.0

    def gap(self, z: float) -> float:
        """Distance from n z + BOUNDARY_TOL to the nearest atom of the sum."""
        return float(np.min(np.abs(self.sums - (z * self.n + BOUNDARY_TOL))))


def letter_atoms(w: np.ndarray, p: np.ndarray, numer: np.ndarray, ref: np.ndarray):
    """Per-letter atoms log(numer(x,y) / ref(y)) with probabilities P(x) W(y|x).

    Letters with equal values share one atom (a BSC has two), which keeps the
    number of count vectors, C(n + atoms - 1, atoms - 1), small.
    """
    atoms = {}
    for x in range(w.shape[0]):
        for y in range(w.shape[1]):
            if p[x] * w[x, y] > 0:
                v = math.log(numer[x, y]) - math.log(ref[y])
                atoms[v] = atoms.get(v, 0.0) + p[x] * w[x, y]
    return list(atoms), list(atoms.values())


def fbl_terms(spec: Spec, p: np.ndarray, n: int, rate: float, bound: str):
    """(weight, per-letter atoms, per-letter threshold) of each weighted tail.

    These are the bound definitions documented in the CLI: Feinstein at
    rate + eta against the product output (mixtures: the pointwise maximum of
    the component outputs, with log K/n + log(1/w_k)/n penalties); the
    Hayashi-Nagaoka converse at rate - eta against the mixture output
    (mixtures: max-envelope numerator, log K/n penalty); the mixture converse
    at rate - eta against each component's own output; and the plain tail at
    the rate.  Returns the terms and the slack term added at the end.
    """
    eta = 1.0 / math.sqrt(n)
    k = len(spec.mats)
    outs = [p @ w for w in spec.mats]
    terms = []
    if bound == "feinstein":
        ref = outs[0] if k == 1 else np.max(outs, axis=0)
        for wk, w in zip(spec.weights, spec.mats):
            pen = 0.0 if k == 1 else (math.log(k) + math.log(1.0 / wk)) / n
            terms.append((wk, letter_atoms(w, p, w, ref), rate + eta + pen))
        return terms, math.exp(-n * eta)
    if bound == "hn":
        q_mix = sum(wk * q for wk, q in zip(spec.weights, outs))
        env = spec.mats[0] if k == 1 else np.max(spec.mats, axis=0)
        pen = 0.0 if k == 1 else math.log(k) / n
        for wk, w in zip(spec.weights, spec.mats):
            terms.append((wk, letter_atoms(w, p, env, q_mix), rate - eta - pen))
        return terms, -math.exp(-n * eta)
    if bound == "mixed-converse":
        for wk, w, q in zip(spec.weights, spec.mats, outs):
            terms.append((wk, letter_atoms(w, p, w, q), rate - eta))
        return terms, -math.exp(-n * eta)
    if bound == "exact":
        for wk, w, q in zip(spec.weights, spec.mats, outs):
            terms.append((wk, letter_atoms(w, p, w, q), rate))
        return terms, 0.0
    raise ValueError(f"unknown bound {bound!r}")


def fbl_value(spec: Spec, p: np.ndarray, n: int, rate: float, bound: str,
              laws: dict | None = None) -> float:
    """Reference value of ``fbl --bound`` (clipped to [0, 1]).

    ``laws`` caches SumLaw objects per (atoms, n), so rate sweeps reuse them.
    """
    terms, slack = fbl_terms(spec, p, n, rate, bound)
    laws = {} if laws is None else laws
    total = slack
    for wk, (vals, probs), z in terms:
        key = (tuple(vals), tuple(probs), n)
        if key not in laws:
            laws[key] = SumLaw(vals, probs, n)
        total += wk * laws[key].tail(z)
    return min(max(total, 0.0), 1.0)


def fbl_gap(spec: Spec, p: np.ndarray, n: int, rate: float, bound: str, laws: dict) -> float:
    """Smallest distance between a tail threshold and an atom of its sum law."""
    terms, _ = fbl_terms(spec, p, n, rate, bound)
    out = math.inf
    for _, (vals, probs), z in terms:
        key = (tuple(vals), tuple(probs), n)
        if key not in laws:
            laws[key] = SumLaw(vals, probs, n)
        out = min(out, laws[key].gap(z))
    return out


# ---------------------------------------------------------------------------
# expurgated parameter set (validate-lemmas)
# ---------------------------------------------------------------------------


def quantized_counts(p: np.ndarray, n: int, costs: np.ndarray) -> np.ndarray:
    """Type of blocklength n: floor(n P(x)) on all but the cheapest letter."""
    order = sorted(range(len(p)), key=lambda x: -costs[x])
    counts = np.zeros(len(p), dtype=int)
    for x in order[:-1]:
        counts[x] = math.floor(n * p[x])
    counts[order[-1]] = n - counts.sum()
    return counts


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    hi = np.max(a, axis=axis, keepdims=True)
    return (hi + np.log(np.sum(np.exp(a - hi), axis=axis, keepdims=True))).squeeze(axis)


def expurgated_members(spec: Spec, q_list, n: int) -> np.ndarray:
    """Membership of each atom in the dominated set at blocklength n.

    An atom is kept when its product output law and its n-letter channel law
    never exceed exp(n^(1/4)) times the mixture law, over every output type
    and every joint type.
    """
    kx, ky = spec.mats[0].shape
    logw = np.log(spec.weights)[:, None]
    slack = n ** 0.25
    member = np.ones(len(spec.mats), dtype=bool)
    for table, counts in ((np.log(np.array(q_list)), _compositions(n, ky)),
                          (np.log(np.array([m.reshape(-1) for m in spec.mats])),
                           _compositions(n, kx * ky))):
        log_each = table @ counts.T          # atoms x types
        log_mix = _logsumexp(logw + log_each, axis=0)
        member &= np.all(log_each <= slack + log_mix[None, :] + 1e-12, axis=1)
    return member
