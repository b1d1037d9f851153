"""Exact and Monte-Carlo evaluation of information-spectrum tails and bounds.

The n-letter information density of a memoryless channel against a product
reference is a sum of per-letter atoms, so it depends only on how many letters
land on each atom: its exact law is a sum over count vectors (the method of
types), one per letter part (all n letters, or the letters of one input symbol
of a fixed composition).  Each count vector is one atom of that law; only the
per-letter atoms group equal values.  The achievability and converse bounds are evaluated
from those tails; true mixtures, whose output law is not a product, get
explicitly flagged upper-bound surrogates with logarithmic penalties.  Every
input is an ``input_spec``: an ``InputDist`` (i.i.d. letters) or a
``TypeClass`` (one fixed composition); Feinstein's bound takes only the former.

Each tail picks its path up front from the type count T, the product of the
parts' count-vector counts: exact when T <= min(K, ``ENUM_CAP``) for K
Monte-Carlo trials, else sampled, each trial drawing one multinomial count
vector per letter part, so its cost does not depend on n.

Boundary convention: a tail at threshold z includes atoms within
``BOUNDARY_TOL`` of n z (absolute, on the total), and the Monte-Carlo sampler
applies the same rule, so the two paths agree on lattice spectra.
"""

from __future__ import annotations

import math

import numpy as np

# DominationError is re-exported: callers import it from here too
from .channel import (DominationError, Dmc, InputDist, MixedChannel, SlackParams,
                      log_density, output_distribution)
from .types_toolkit import (ENUM_CAP, EnumerationCapError, TypeClass, count_types,
                            enumerate_types, log_factorials)

BOUNDARY_TOL = 1e-9
MC_CHUNK = 4096

KIND_FEINSTEIN = "feinstein"
KIND_HN = "hayashi_nagaoka"
KIND_MIXED_CONVERSE = "mixed_converse"
KIND_EXACT_TAIL = "exact_tail"
KIND_MC = "mc"


class AtomDist:
    """A finite distribution on the reals: sorted values with probabilities."""

    __slots__ = ("values", "probs")

    def __init__(self, values, probs):
        v = np.asarray(values, dtype=float)
        p = np.asarray(probs, dtype=float)
        if v.shape != p.shape or v.ndim != 1:
            raise ValueError("values and probs must be equal-length vectors")
        if np.any(~np.isfinite(v)):
            raise ValueError("atom values must be finite")
        order = np.argsort(v, kind="stable")
        v, p = v[order].copy(), p[order].copy()
        v.setflags(write=False)
        p.setflags(write=False)
        self.values, self.probs = v, p

    def mean(self) -> float:
        return float(self.values @ self.probs)

    def cdf_at(self, threshold: float) -> float:
        """P{value <= threshold + BOUNDARY_TOL}."""
        idx = np.searchsorted(self.values, threshold + BOUNDARY_TOL, side="right")
        return float(self.probs[:idx].sum())


class CodeParams:
    """Blocklength and rate; the rate is log(M)/n in nats for a code of M codewords."""

    __slots__ = ("n", "rate")

    def __init__(self, n: int, rate: float):
        if n < 1:
            raise ValueError("blocklength must be at least 1")
        if not 0.0 <= rate < math.inf:  # 1 <= M < inf codewords
            raise ValueError(f"rate must be a finite number >= 0, got {rate}")
        self.n, self.rate = n, rate


class BoundEstimate:
    __slots__ = ("value", "kind", "stderr", "trials", "seed", "note")

    def __init__(self, value: float, kind: str, stderr: float = 0.0, trials: int = 0,
                 seed: int = 0, note: str = ""):
        if not 0.0 <= value <= 1.0:
            raise ValueError("bound value must lie in [0, 1]")
        if trials == 0 and stderr != 0.0:
            raise ValueError("exact estimates must have zero stderr")
        self.value, self.kind, self.stderr = value, kind, stderr
        self.trials, self.seed, self.note = trials, seed, note


PROB_FLOOR = 1e-300  # per-letter atoms at or below this carry no representable mass


def per_letter_spectrum(x_source, w: Dmc, q, numer: np.ndarray | None = None) -> AtomDist:
    """Atoms of log(W(y|x)/q(y)) with their probabilities.

    ``x_source`` is either an input distribution (letters drawn i.i.d.) or a
    fixed input letter.  The reference q must dominate every reachable output;
    a violation is reported with the offending (x, y) pair.  ``numer``
    replaces W inside the log while the probabilities still follow W (used by
    the mixture surrogates).  Pairs of exactly equal value are one atom, and
    masses at or below ``PROB_FLOOR`` are dropped: this is the only place the
    atom count, and with it every type count, is set.
    """
    px = x_source.probs if isinstance(x_source, InputDist) else np.eye(w.num_inputs)[int(x_source)]
    probs = px[:, None] * w.rows
    reach = probs > PROB_FLOOR
    values, of = np.unique(log_density(px, w, q, numer)[reach], return_inverse=True)
    return AtomDist(values, np.bincount(of, probs[reach]))


def convolve_n(atoms: AtomDist, n: int) -> AtomDist:
    """Exact distribution of the sum of n i.i.d. copies, as a sum over count vectors:
    each count vector c is one atom, of value c @ values and multinomial probability."""
    if n < 1:
        raise ValueError("n must be at least 1")
    live = atoms.probs > 0.0  # a massless atom would put 0 * log 0 into every count vector
    counts = enumerate_types(int(live.sum()), n)
    log_probs = (math.lgamma(n + 1) - log_factorials(counts).sum(axis=1)
                 + counts @ np.log(atoms.probs[live]))
    return AtomDist(counts @ atoms.values[live], np.exp(log_probs))


def letter_parts(w: Dmc, input_spec, q, n: int, numer: np.ndarray | None = None):
    """(per-letter atoms, letter count) pairs whose summed draws make the n-letter density."""
    if isinstance(input_spec, TypeClass):
        if input_spec.n != n:
            raise ValueError("composition blocklength does not match n")
        return [(per_letter_spectrum(x, w, q, numer), int(cnt))
                for x, cnt in enumerate(input_spec.counts) if cnt > 0]
    return [(per_letter_spectrum(input_spec, w, q, numer), n)]


def _type_count(parts) -> int:
    """Count vectors behind the n-letter law: the product over letter parts."""
    return math.prod(count_types(len(a.values), cnt) for a, cnt in parts)


def aggregate_spectrum(parts) -> AtomDist:
    """Exact law of the n-letter density summed from its ``letter_parts``.

    Parts are joined by outer sums, so the law has one atom per combination of
    the parts' count vectors; past ``ENUM_CAP`` of them it raises
    ``EnumerationCapError``.  P{(1/n) density <= z} is ``law.cdf_at(n * z)``.
    """
    types = _type_count(parts)
    if types > ENUM_CAP:
        raise EnumerationCapError(f"the exact tail needs {types} types, past the cap {ENUM_CAP}")
    agg = None
    for atoms_x, cnt in parts:
        law = convolve_n(atoms_x, cnt)
        agg = law if agg is None else AtomDist((agg.values[:, None] + law.values).ravel(),
                                               (agg.probs[:, None] * law.probs).ravel())
    if abs(agg.probs.sum() - 1.0) > 1e-9:
        raise ValueError("aggregate mass drifted beyond 1e-9")
    return agg


def normal_approx(n: int, c_first: float, d_second: float) -> float:
    """Two-term estimate of log M*: n c + sqrt(n) d, in total nats."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return n * c_first + math.sqrt(n) * d_second


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def _bound(kind: str, mixed: MixedChannel, input_spec, refs, thresholds, code: CodeParams,
           offset: float, *, numer: np.ndarray | None = None, note: str = "",
           mc_trials: int | None = None, seed: int = 0, threads: int = 1,
           force_mc: bool = False) -> BoundEstimate:
    """sum_k w_k P_k{density against refs[k] <= thresholds[k]} + offset, clipped to [0, 1].

    Component k's tail is exact when its type count is at most ``ENUM_CAP`` and
    ``mc_trials`` (the exact path never has more points than the Monte-Carlo run
    asked for), else ``mc_tail`` samples it under Philox key ``seed + (k << 64)``:
    the components' MC errors are independent, so they add in quadrature, and
    component 0 (so every singleton) keeps the plain seed's stream.  Without
    ``mc_trials`` every tail is exact or raises ``EnumerationCapError``;
    ``force_mc`` skips the exact path.  ``numer`` substitutes the matrix inside
    the log while sampling still follows each component.
    """
    if force_mc and mc_trials is None:
        raise ValueError("force_mc needs mc_trials")
    if len(refs) != mixed.num_atoms:
        raise ValueError("need one reference output per component")
    n, total, var, trials = code.n, 0.0, 0.0, 0
    for k, ((w_k, comp), q, z) in enumerate(zip(mixed.atoms, refs, thresholds)):
        parts = letter_parts(comp, input_spec, q, n, numer)
        if not force_mc and (mc_trials is None or _type_count(parts) <= min(ENUM_CAP, mc_trials)):
            total += w_k * aggregate_spectrum(parts).cdf_at(n * z)
            continue
        est = mc_tail(parts, n, z, mc_trials, seed + (k << 64), threads)
        total += w_k * est.value
        var += (w_k * est.stderr) ** 2
        trials += est.trials
    return BoundEstimate(min(max(total + offset, 0.0), 1.0), kind, math.sqrt(var), trials,
                         seed, note)


def feinstein_bound(mixed: MixedChannel, p: InputDist, code: CodeParams, slack: SlackParams,
                    **mc) -> BoundEstimate:
    """Achievability: P{density <= rate + eta} + exp(-n eta).

    Exact for a single component with i.i.d. input, where the output law is
    the product (PW)^n.  For true mixtures the mixed output law is not a
    product; each component is evaluated against the pointwise maximum of the
    component output laws, with log(K)/n and log(1/w_k)/n threshold penalties.
    That surrogate upper-bounds the original expression and is flagged.  With
    one component the penalties vanish and the envelope is the output law.
    ``mc`` holds the Monte-Carlo options of ``_bound``.
    """
    n, eta = code.n, slack.eta
    z = code.rate + eta
    q_max = output_distribution(p, mixed).max(axis=0)
    big_k = math.log(mixed.num_atoms) / n
    zs = [z + (big_k + math.log(1.0 / w_k) / n) for w_k, _ in mixed.atoms]
    note = ("mixed-output surrogate: per-component max-envelope reference with log penalties"
            if mixed.num_atoms > 1 else "")
    return _bound(KIND_FEINSTEIN, mixed, p, [q_max] * mixed.num_atoms, zs, code,
                  math.exp(-n * eta), note=note, **mc)


def hayashi_nagaoka_bound(mixed: MixedChannel, code: CodeParams, q, slack: SlackParams,
                          input_spec, **mc) -> BoundEstimate:
    """Converse: P{density <= rate - eta} - exp(-n eta), clipped to [0, 1].

    ``q`` is a single-letter reference, taken as a product law.  For true
    mixtures the component laws are replaced by their pointwise maximum
    (flagged), which keeps the converse direction; with one component the
    maximum is the channel itself.  ``mc`` holds the Monte-Carlo options of
    ``_bound``.
    """
    n, eta, k = code.n, slack.eta, mixed.num_atoms
    # pointwise maximum of the component laws: not stochastic, used only as
    # the numerator inside the statistic, which keeps the converse direction
    env = mixed.rows.max(axis=0)
    note = "mixed-law surrogate: max-envelope numerator" if k > 1 else ""
    return _bound(KIND_HN, mixed, input_spec, [q] * k, [code.rate - eta - math.log(k) / n] * k,
                  code, -math.exp(-n * eta), numer=env, note=note, **mc)


def mixed_converse_bound(mixed: MixedChannel, code: CodeParams, q_list, slack: SlackParams,
                         input_spec, **mc) -> BoundEstimate:
    """Mixture converse: weighted per-component tails minus exp(-n eta).

    Each component is compared against its own product reference, so every
    tail is an exact n-letter law (no surrogate needed); for a singleton this
    coincides with the plain converse bound.  ``mc`` holds the Monte-Carlo
    options of ``_bound``.
    """
    return _bound(KIND_MIXED_CONVERSE, mixed, input_spec, q_list,
                  [code.rate - slack.eta] * mixed.num_atoms, code,
                  -math.exp(-code.n * slack.eta), **mc)


def exact_tail_bound(mixed: MixedChannel, code: CodeParams, q_list, input_spec) -> BoundEstimate:
    """Weighted exact spectrum tail at the code rate (no slack terms)."""
    return _bound(KIND_EXACT_TAIL, mixed, input_spec, q_list, [code.rate] * mixed.num_atoms,
                  code, 0.0)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def mc_tail(parts, n: int, threshold: float, trials: int, seed: int,
            threads: int = 1) -> BoundEstimate:
    """Unbiased MC estimate of P{(1/n) sum of density <= threshold} over ``letter_parts``.

    The n-letter density depends only on how many letters land on each
    per-letter atom, so each trial draws one multinomial count vector per
    letter part and sums counts times atom values: cost and memory do not
    depend on n.  Each chunk of ``MC_CHUNK`` trials has its own
    counter-based generator stream, so results are bit-identical for any
    ``threads``: each of min(threads, chunks) workers runs one span of chunks.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if threads < 1:
        raise ValueError("need at least one thread")
    if threshold == math.inf:
        return BoundEstimate(1.0, KIND_MC, 0.0, 0, seed)
    if threshold == -math.inf:
        return BoundEstimate(0.0, KIND_MC, 0.0, 0, seed)
    # normalized: rows may sum to 1 + SUM_TOL, past the 1 + 1e-12 that numpy
    # allows for all but the last atom
    laws = [(cnt, a.probs / a.probs.sum(), a.values) for a, cnt in parts]
    cut = threshold * n + BOUNDARY_TOL

    def run_chunk(c: int) -> int:
        size = min(MC_CHUNK, trials - c * MC_CHUNK)
        rng = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, c]))
        sums = np.zeros(size)
        for cnt, probs, values in laws:
            sums += (rng.multinomial(cnt, probs, size=size) * values).sum(axis=1)
        return int(np.count_nonzero(sums <= cut))

    n_chunks = (trials + MC_CHUNK - 1) // MC_CHUNK
    workers = min(threads, n_chunks)
    spans = [range(k * n_chunks // workers, (k + 1) * n_chunks // workers) for k in range(workers)]
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # only here: every command loads spectrum

        with ThreadPoolExecutor(max_workers=workers) as pool:
            hits = sum(pool.map(lambda span: sum(map(run_chunk, span)), spans))
    else:
        hits = sum(map(run_chunk, spans[0]))
    p_hat = hits / trials
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials)
    return BoundEstimate(p_hat, KIND_MC, stderr, trials, seed)
