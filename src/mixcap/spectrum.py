"""Exact and Monte-Carlo evaluation of information-spectrum tails and bounds.

The n-letter information density of a memoryless channel against a product
reference is a sum of independent per-letter atoms, so its law is computed by
exact n-fold convolution (binary powering with atom merging).  The
achievability and converse bounds are evaluated from those tails; true
mixtures, whose output law is not a product, get explicitly flagged
upper-bound surrogates with logarithmic penalties.

Boundary convention: a tail at threshold z includes atoms within
``BOUNDARY_TOL`` of n z (absolute, on the total), and the Monte-Carlo sampler
applies the same rule, so the two paths agree on lattice spectra.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

# DominationError is re-exported: callers import it from here too
from .channel import (DominationError, Dmc, InputDist, MixedChannel, SlackParams,
                      log_density, output_distribution)
from .optimizer import ConvergenceError
from .types_toolkit import TypeClass, count_types

BOUNDARY_TOL = 1e-9
ATOM_CAP = 10**6
PAIR_CAP = 4 * 10**7
MC_CHUNK = 4096

KIND_FEINSTEIN = "feinstein"
KIND_HN = "hayashi_nagaoka"
KIND_MIXED_CONVERSE = "mixed_converse"
KIND_EXACT_TAIL = "exact_tail"
KIND_MC = "mc"


@dataclass(frozen=True)
class AtomDist:
    """A finite distribution on the reals: sorted values with probabilities."""

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        p = np.asarray(self.probs, dtype=float)
        if v.shape != p.shape or v.ndim != 1:
            raise ValueError("values and probs must be equal-length vectors")
        if np.any(~np.isfinite(v)):
            raise ValueError("atom values must be finite")
        order = np.argsort(v, kind="stable")
        v, p = v[order].copy(), p[order].copy()
        v.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "probs", p)

    @property
    def total_mass(self) -> float:
        return float(self.probs.sum())

    def mean(self) -> float:
        return float(self.values @ self.probs)

    def cdf_at(self, threshold: float) -> float:
        """P{value <= threshold + BOUNDARY_TOL}."""
        idx = np.searchsorted(self.values, threshold + BOUNDARY_TOL, side="right")
        return float(self.probs[:idx].sum())


@dataclass(frozen=True)
class SpectrumCdf:
    """Exact law of the n-letter information density (sum of per-letter atoms)."""

    n: int
    aggregate: AtomDist

    def __post_init__(self):
        if abs(self.aggregate.total_mass - 1.0) > 1e-9:
            raise ValueError("aggregate mass drifted beyond 1e-9")

    def tail_leq(self, z_per_letter: float) -> float:
        """P{(1/n) sum <= z}, boundary handled at BOUNDARY_TOL on the total."""
        return self.aggregate.cdf_at(z_per_letter * self.n)


@dataclass(frozen=True)
class CodeParams:
    """Blocklength, code size and rate; the rate is log(m)/n in nats."""

    n: int
    rate: float
    m: int | None = None
    composition: TypeClass | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("blocklength must be at least 1")
        if self.m is not None:
            if self.m < 1:
                raise ValueError("need at least one codeword")
            if abs(self.rate - math.log(self.m) / self.n) > 1e-12:
                raise ValueError("rate must equal log(m)/n within 1e-12")

    @staticmethod
    def from_codewords(n: int, m: int, composition: TypeClass | None = None) -> "CodeParams":
        return CodeParams(n, math.log(m) / n, m, composition)

    @staticmethod
    def from_rate(n: int, rate: float, composition: TypeClass | None = None) -> "CodeParams":
        # rate sweeps keep the rate primary; no integer size is attached
        return CodeParams(n, rate, None, composition)


@dataclass(frozen=True)
class BoundEstimate:
    value: float
    kind: str
    stderr: float = 0.0
    trials: int = 0
    seed: int = 0
    note: str = ""

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError("bound value must lie in [0, 1]")
        if self.trials == 0 and self.stderr != 0.0:
            raise ValueError("exact estimates must have zero stderr")


PROB_FLOOR = 1e-300  # atoms below this carry no representable mass


def merge_atoms(values: np.ndarray, probs: np.ndarray, merge_tol: float) -> AtomDist:
    """Sort and merge atoms whose values are within merge_tol of a neighbor.

    Merged atoms take the probability-weighted mean value, so exact lattice
    spectra stay on the lattice up to rounding noise.  Atoms whose mass falls
    below PROB_FLOOR are dropped: subnormal weights would otherwise poison the
    weighted means and break the lattice structure.
    """
    keep = probs > PROB_FLOOR
    values, probs = values[keep], probs[keep]
    order = np.argsort(values, kind="stable")
    v = values[order]
    p = probs[order]
    if len(v) == 0:
        return AtomDist(v, p)
    if merge_tol > 0.0:
        breaks = np.flatnonzero(np.diff(v) > merge_tol)
    else:
        breaks = np.flatnonzero(np.diff(v) > 0.0)
    starts = np.concatenate(([0], breaks + 1))
    mass = np.add.reduceat(p, starts)
    weighted = np.add.reduceat(v * p, starts)
    merged_v = weighted / mass
    keep = mass > PROB_FLOOR
    return AtomDist(merged_v[keep], mass[keep])


def per_letter_spectrum(x_source, w: Dmc, q, numer: np.ndarray | None = None) -> AtomDist:
    """Atoms of log(W(y|x)/q(y)) with their probabilities.

    ``x_source`` is either an input distribution (letters drawn i.i.d.) or a
    fixed input letter.  The reference q must dominate every reachable output;
    a violation is reported with the offending (x, y) pair.  ``numer``
    replaces W inside the log while the probabilities still follow W (used by
    the mixture surrogates).
    """
    px = x_source.probs if isinstance(x_source, InputDist) else np.eye(w.num_inputs)[int(x_source)]
    probs = px[:, None] * w.rows
    reach = probs > 0.0
    values = log_density(px, w, q, numer)[reach]
    return merge_atoms(values, probs[reach], 0.0)


def _convolve_pair(a: AtomDist, b: AtomDist, merge_tol: float) -> AtomDist:
    if len(a.values) * len(b.values) > PAIR_CAP:
        raise ConvergenceError(
            f"convolution would form {len(a.values) * len(b.values)} atom pairs; "
            "use the Monte-Carlo path")
    values = (a.values[:, None] + b.values[None, :]).ravel()
    probs = (a.probs[:, None] * b.probs[None, :]).ravel()
    out = merge_atoms(values, probs, merge_tol)
    if len(out.values) > ATOM_CAP:
        raise ConvergenceError(
            f"{len(out.values)} atoms exceed the cap {ATOM_CAP}; "
            "use the Monte-Carlo path")
    return out


def default_merge_tol(atoms: AtomDist, n: int) -> float:
    scale = max(1.0, float(np.max(np.abs(atoms.values))) if len(atoms.values) else 1.0)
    return 1e-12 * n * scale


def convolve_n(atoms: AtomDist, n: int, merge_tol: float | None = None) -> AtomDist:
    """Exact distribution of the sum of n i.i.d. copies, by binary powering."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if merge_tol is None:
        merge_tol = default_merge_tol(atoms, n)
    result = None
    base = atoms
    m = n
    while m > 0:
        if m & 1:
            result = base if result is None else _convolve_pair(result, base, merge_tol)
        m >>= 1
        if m:
            base = _convolve_pair(base, base, merge_tol)
    return result


def _letter_parts(w: Dmc, input_spec, q, n: int, numer: np.ndarray | None = None):
    """(per-letter atoms, letter count) pairs whose summed draws make the n-letter density."""
    if isinstance(input_spec, TypeClass):
        if input_spec.n != n:
            raise ValueError("composition blocklength does not match n")
        return [(per_letter_spectrum(x, w, q, numer), int(cnt))
                for x, cnt in enumerate(input_spec.counts) if cnt > 0]
    return [(per_letter_spectrum(input_spec, w, q, numer), n)]


def aggregate_spectrum(w: Dmc, input_spec, q, n: int,
                       numer: np.ndarray | None = None) -> SpectrumCdf:
    """Exact n-letter spectrum for an i.i.d. input or a fixed composition.

    ``numer`` is passed on to ``per_letter_spectrum``.
    """
    parts = _letter_parts(w, input_spec, q, n, numer)
    tol = max(default_merge_tol(a, n) for a, _ in parts)
    agg = None
    for atoms_x, cnt in parts:
        powered = convolve_n(atoms_x, cnt, tol)
        agg = powered if agg is None else _convolve_pair(agg, powered, tol)
    return SpectrumCdf(n, agg)


def normal_approx(n: int, c_first: float, d_second: float) -> float:
    """Two-term estimate of log M*: n c + sqrt(n) d, in total nats."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return n * c_first + math.sqrt(n) * d_second


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def _as_mixed(channel) -> MixedChannel:
    return channel if isinstance(channel, MixedChannel) else MixedChannel.singleton(channel)


def _clip01(v: float) -> float:
    return min(max(v, 0.0), 1.0)


def feinstein_bound(
    channel,
    p: InputDist,
    code: CodeParams,
    slack: SlackParams,
    mc_trials: int | None = None,
    seed: int = 0,
    threads: int = 1,
    force_mc: bool = False,
) -> BoundEstimate:
    """Achievability: P{density <= rate + eta} + exp(-n eta).

    Exact for a single component with i.i.d. input, where the output law is
    the product (PW)^n.  For true mixtures the mixed output law is not a
    product; each component is evaluated against the pointwise maximum of the
    component output laws, with log(K)/n and log(1/w_k)/n threshold penalties.
    That surrogate upper-bounds the original expression and is flagged.  With
    one component the penalties vanish and the envelope is the output law.
    """
    mixed = _as_mixed(channel)
    n, eta = code.n, slack.eta
    z = code.rate + eta
    q_max = np.array([output_distribution(p, comp) for comp in mixed.components]).max(axis=0)
    big_k = math.log(mixed.num_atoms) / n
    zs = [z + (big_k + math.log(1.0 / w_k) / n) for w_k, _ in mixed.atoms]
    total, stderr, trials = _weighted_tail(mixed, p, [q_max] * mixed.num_atoms, zs, n,
                                           mc_trials, seed, threads, force_mc)
    note = ("mixed-output surrogate: per-component max-envelope reference with log penalties"
            if mixed.num_atoms > 1 else "")
    return BoundEstimate(_clip01(total + math.exp(-n * eta)), KIND_FEINSTEIN, stderr,
                         trials, seed, note)


def hayashi_nagaoka_bound(
    channel,
    code: CodeParams,
    q,
    slack: SlackParams,
    input_spec=None,
    q_family: str = "product",
    mc_trials: int | None = None,
    seed: int = 0,
    threads: int = 1,
    force_mc: bool = False,
) -> BoundEstimate:
    """Converse: P{density <= rate - eta} - exp(-n eta), clipped to [0, 1].

    ``q`` is a single-letter reference; ``q_family`` may be "product" or
    "type-mixture" (the latter shifts the threshold by -log(N_n + 1)/n and
    keeps q as the extra reference term, a valid single-reference evaluation
    of the mixture-of-types family).  For true mixtures the component laws
    are replaced by their pointwise maximum (flagged), which keeps the
    converse direction; with one component the maximum is the channel itself.
    """
    mixed = _as_mixed(channel)
    n, eta = code.n, slack.eta
    input_spec = _input_spec(code, input_spec)
    z = code.rate - eta
    notes = []
    if q_family == "type-mixture":
        z -= math.log(count_types(mixed.num_inputs, n) + 1) / n
        notes.append("type-mixture family via single-reference evaluation")
    elif q_family != "product":
        raise ValueError(f"unknown q family {q_family!r}")
    if mixed.num_atoms > 1:
        notes.append("mixed-law surrogate: max-envelope numerator")
    # pointwise maximum of the component laws: not stochastic, used only as
    # the numerator inside the statistic, which keeps the converse direction
    env = np.stack([comp.rows for comp in mixed.components]).max(axis=0)
    k = mixed.num_atoms
    total, stderr, trials = _weighted_tail(mixed, input_spec, [q] * k,
                                           [z - math.log(k) / n] * k, n,
                                           mc_trials, seed, threads, force_mc, numer=env)
    return BoundEstimate(_clip01(total - math.exp(-n * eta)), KIND_HN, stderr, trials,
                         seed, "; ".join(notes))


def mixed_converse_bound(
    mixed: MixedChannel,
    code: CodeParams,
    q_list,
    slack: SlackParams,
    input_spec=None,
    mc_trials: int | None = None,
    seed: int = 0,
    threads: int = 1,
    force_mc: bool = False,
) -> BoundEstimate:
    """Mixture converse: weighted per-component tails minus exp(-n eta).

    Each component is compared against its own product reference, so every
    tail is an exact convolution (no surrogate needed); for a singleton this
    coincides with the plain converse bound.
    """
    mixed = _as_mixed(mixed)
    n, eta = code.n, slack.eta
    input_spec = _input_spec(code, input_spec)
    if len(q_list) != mixed.num_atoms:
        raise ValueError("need one reference output per component")
    total, stderr, trials = _weighted_tail(mixed, input_spec, q_list,
                                           [code.rate - eta] * mixed.num_atoms, n,
                                           mc_trials, seed, threads, force_mc)
    return BoundEstimate(_clip01(total - math.exp(-n * eta)), KIND_MIXED_CONVERSE,
                         stderr, trials, seed)


def exact_tail_bound(mixed, code: CodeParams, q_list, input_spec=None) -> BoundEstimate:
    """Weighted exact spectrum tail at the code rate (no slack terms)."""
    mixed = _as_mixed(mixed)
    input_spec = _input_spec(code, input_spec)
    total, _, _ = _weighted_tail(mixed, input_spec, q_list, [code.rate] * mixed.num_atoms,
                                 code.n, None, 0, 1, False)
    return BoundEstimate(_clip01(total), KIND_EXACT_TAIL)


def _input_spec(code: CodeParams, input_spec):
    """The explicit input spec, else the code's composition."""
    input_spec = input_spec if input_spec is not None else code.composition
    if input_spec is None:
        raise ValueError("need an input spec: pass input_spec or set code.composition")
    return input_spec


def _weighted_tail(mixed: MixedChannel, input_spec, refs, thresholds, n,
                   mc_trials, seed, threads, force_mc, numer: np.ndarray | None = None):
    """(sum_k w_k P_k{density <= z_k}, its MC standard error, total MC trials).

    Component k samples under Philox key ``seed + (k << 64)``: the components'
    MC errors are independent, so they add in quadrature, and component 0 (so
    every singleton) keeps the plain seed's stream.
    """
    total, var, trials_total = 0.0, 0.0, 0
    for k, ((w_k, comp), q, z) in enumerate(zip(mixed.atoms, refs, thresholds)):
        tail, stderr, trials = _tail_or_mc(comp, input_spec, q, n, z, mc_trials,
                                           seed + (k << 64), threads, numer, force_mc)
        total += w_k * tail
        var += (w_k * stderr) ** 2
        trials_total += trials
    return total, math.sqrt(var), trials_total


def _tail_or_mc(w: Dmc, input_spec, q, n, z, mc_trials, seed, threads,
                numer: np.ndarray | None = None, force_mc: bool = False):
    """Exact tail via convolution, falling back to MC when atoms blow up.

    ``force_mc`` skips the convolution; ``numer`` substitutes the matrix
    inside the log while sampling still follows ``w``.
    """
    if not force_mc:
        try:
            spec = aggregate_spectrum(w, input_spec, q, n, numer=numer)
            return spec.tail_leq(z), 0.0, 0
        except ConvergenceError:
            if mc_trials is None:
                raise
    est = mc_tail(w, input_spec, q, n, z, mc_trials, seed, threads=threads, numer=numer)
    return est.value, est.stderr, est.trials


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def mc_tail(
    w: Dmc,
    input_spec,
    q,
    n: int,
    threshold: float,
    trials: int,
    seed: int,
    threads: int = 1,
    numer: np.ndarray | None = None,
) -> BoundEstimate:
    """Unbiased MC estimate of P{(1/n) sum of density <= threshold}.

    Uses one counter-based generator stream per fixed-size chunk of trials,
    so results are bit-identical for any thread count.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if threshold == math.inf:
        return BoundEstimate(1.0, KIND_MC, 0.0, 0, seed)
    if threshold == -math.inf:
        return BoundEstimate(0.0, KIND_MC, 0.0, 0, seed)
    blocks = [(cnt, np.cumsum(a.probs), a.values)
              for a, cnt in _letter_parts(w, input_spec, q, n, numer)]
    cut = threshold * n + BOUNDARY_TOL

    def run_chunk(c: int) -> int:
        lo = c * MC_CHUNK
        size = min(MC_CHUNK, trials - lo)
        rng = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, c]))
        sums = np.zeros(size)
        for cnt, cum, values in blocks:
            u = rng.random((size, cnt))
            idx = np.searchsorted(cum, u, side="right")
            np.clip(idx, 0, len(values) - 1, out=idx)
            sums += values[idx].sum(axis=1)
        return int(np.count_nonzero(sums <= cut))

    n_chunks = (trials + MC_CHUNK - 1) // MC_CHUNK
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            hits = sum(pool.map(run_chunk, range(n_chunks)))
    else:
        hits = sum(run_chunk(c) for c in range(n_chunks))
    p_hat = hits / trials
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials)
    return BoundEstimate(p_hat, KIND_MC, stderr, trials, seed)
