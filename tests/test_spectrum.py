import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcap import (
    AtomDist,
    CodeParams,
    Dmc,
    DominationError,
    InputDist,
    MixedChannel,
    SlackParams,
    aggregate_spectrum,
    channel_dispersion,
    convolve_n,
    feinstein_bound,
    gaussian_cdf,
    hayashi_nagaoka_bound,
    letter_parts,
    mc_tail,
    mixed_converse_bound,
    mutual_information,
    normal_approx,
    output_distribution,
    per_letter_spectrum,
)
from mixcap.cli import load_spec
from mixcap.spectrum import MC_CHUNK, exact_tail_bound
from mixcap.types_toolkit import ENUM_CAP, EnumerationCapError, TypeClass, count_types
from conftest import bsc, random_dmc


def test_per_letter_spectrum_bsc(uniform2):
    w = bsc(0.11)
    q = output_distribution(uniform2, w)
    atoms = per_letter_spectrum(uniform2, w, q)
    assert len(atoms.values) == 2
    assert atoms.mean() == pytest.approx(mutual_information(uniform2, w), abs=1e-12)


def test_per_letter_spectrum_noiseless(uniform2):
    w = Dmc([[1.0, 0.0], [0.0, 1.0]])
    atoms = per_letter_spectrum(uniform2, w, np.array([0.5, 0.5]))
    assert len(atoms.values) == 1
    assert atoms.values[0] == pytest.approx(math.log(2))
    useless = per_letter_spectrum(uniform2, bsc(0.5), np.array([0.5, 0.5]))
    assert len(useless.values) == 1
    assert useless.values[0] == pytest.approx(0.0, abs=1e-15)


def _brute_spectrum(px, w: Dmc, q, numer):
    """(value, probability) atoms of log(numer/q) by an (x, y) loop with math.log."""
    atoms = {}
    for x in range(w.num_inputs):
        for y in range(w.num_outputs):
            pr = px[x] * w.rows[x, y]
            if pr > 0.0:
                v = math.log(numer[x, y]) - math.log(q[y])
                atoms[v] = atoms.get(v, 0.0) + pr
    return sorted(atoms.items())


def test_per_letter_spectrum_matches_brute_force():
    rng = np.random.default_rng(41)
    for _ in range(40):
        kx, ky = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        rows = rng.dirichlet(np.ones(ky), size=kx) * (rng.random((kx, ky)) < 0.7)
        rows[np.arange(kx), rng.integers(0, ky, kx)] += 1.0 - rows.sum(axis=1)
        w = Dmc(rows)
        p = InputDist(rng.dirichlet(np.ones(kx)))
        numer = w.rows + rng.random((kx, ky))
        cases = [(p, p.probs, w.rows), (p, p.probs, numer)]
        x = int(rng.integers(kx))
        cases.append((x, np.eye(kx)[x], w.rows))
        for source, px, num in cases:
            q = output_distribution(p, w)
            got = per_letter_spectrum(source, w, q, None if num is w.rows else num)
            want = _brute_spectrum(px, w, q, num)
            assert len(got.values) == len(want)
            assert np.all(np.abs(got.values - [v for v, _ in want]) <= 1e-15)
            assert got.probs.tolist() == [pr for _, pr in want]


def test_per_letter_spectrum_domination(uniform2):
    w = bsc(0.11)
    with pytest.raises(DominationError, match=r"y=1"):
        per_letter_spectrum(uniform2, w, np.array([1.0, 0.0]))


def test_convolve_single_atom(monkeypatch):
    """One atom has one count vector: at n = 10^7 a handful of lgamma calls, not n + 1."""
    calls = []
    lgamma = math.lgamma
    monkeypatch.setattr(math, "lgamma", lambda x: calls.append(x) or lgamma(x))
    atoms = AtomDist(np.array([0.7]), np.array([1.0]))
    agg = convolve_n(atoms, 10)
    assert len(agg.values) == 1
    assert agg.values[0] == pytest.approx(7.0, abs=1e-12)
    calls.clear()
    agg = convolve_n(atoms, 10**7)
    assert agg.values.tolist() == [7e6] and agg.probs.tolist() == [1.0]
    assert len(calls) <= 3


@given(st.integers(1, 5), st.integers(1, 25), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_convolve_n_keeps_one_atom_per_count_vector(k, n, seed):
    """Nothing is merged: generic atoms give exactly count_types(k, n) atoms, lattice
    atoms as many, with a total mass of 1."""
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(k))
    for values in (rng.normal(size=k), 0.5 * np.arange(k)):
        law = convolve_n(AtomDist(values, probs), n)
        assert len(law.values) == count_types(k, n)
        assert law.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_convolve_binomial():
    # a massless atom adds no value and no mass
    for values, probs in (([0.0, 1.0], [0.5, 0.5]), ([0.0, 1.0, 5.0], [0.5, 0.5, 0.0])):
        agg = convolve_n(AtomDist(np.array(values), np.array(probs)), 3)
        assert np.allclose(agg.values, [0, 1, 2, 3])
        assert np.allclose(agg.probs, np.array([1, 3, 3, 1]) / 8)


def _outer_sum_law(parts):
    """Law of a sum of independent draws by one outer sum per draw, values merged at 1e-9."""
    v, p = np.zeros(1), np.ones(1)
    for values, probs, cnt in parts:
        for _ in range(cnt):
            v, p = (v[:, None] + values).ravel(), (p[:, None] * probs).ravel()
            _, first, inv = np.unique(np.round(v, 9), return_index=True, return_inverse=True)
            v, p = v[first], np.bincount(inv, p)
    return v, p


def _assert_tails_agree(law: AtomDist, v, p):
    """Tails at midpoints of the reference's gaps over 1e-7, and past both ends."""
    order = np.argsort(v)
    v, cum = v[order], np.cumsum(p[order])
    gaps = np.flatnonzero(np.diff(v) > 1e-7)
    cuts = np.concatenate(([v[0] - 1.0], 0.5 * (v[gaps] + v[gaps + 1]), [v[-1] + 1.0]))
    want = np.concatenate(([0.0], cum[gaps], [cum[-1]]))
    pick = np.linspace(0, len(cuts) - 1, min(len(cuts), 60)).astype(int)
    got = np.array([law.cdf_at(c) for c in cuts[pick]])
    assert np.abs(got - want[pick]).max() <= 1e-13


@given(st.integers(1, 4), st.integers(1, 30), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_convolve_n_matches_outer_sums(k, n, lattice, seed):
    """Sums over count vectors give the law of repeated outer sums, on generic atoms and
    on lattice atoms, where many count vectors share a value and each stays its own atom."""
    rng = np.random.default_rng(seed)
    values = (0.3 * rng.integers(-3, 4, size=k) if lattice else rng.normal(size=k))
    probs = rng.dirichlet(np.ones(k))
    _assert_tails_agree(convolve_n(AtomDist(values, probs), n),
                        *_outer_sum_law([(values, probs, n)]))


def test_composition_spectrum_matches_outer_sums():
    """A fixed composition: one count-vector law per input letter, joined by outer sums."""
    w = random_dmc(np.random.default_rng(41), 2, 3)
    comp = TypeClass(np.array([7, 11]), 18)
    q = output_distribution(InputDist(comp.fractions), w)
    parts = letter_parts(w, comp, q, 18)
    _assert_tails_agree(aggregate_spectrum(parts),
                        *_outer_sum_law([(a.values, a.probs, cnt) for a, cnt in parts]))


def test_convolution_matches_mc(uniform2):
    w = bsc(0.11)
    q = output_distribution(uniform2, w)
    n = 20
    parts = letter_parts(w, uniform2, q, n)
    thresh = mutual_information(uniform2, w)
    exact = aggregate_spectrum(parts).cdf_at(n * thresh)
    est = mc_tail(parts, n, thresh, trials=200_000, seed=12)
    assert abs(est.value - exact) <= 3 * est.stderr + 1e-12


def test_feinstein_small_error_at_half_capacity(uniform2):
    w = bsc(0.11)
    cap = mutual_information(uniform2, w)
    v = channel_dispersion(uniform2, w)
    n = 200
    eta = 1.0 / math.sqrt(n)
    est = feinstein_bound(MixedChannel.singleton(w), uniform2,
                          CodeParams(n, 0.5 * cap),
                          SlackParams(eta=eta))
    assert est.kind == "feinstein"
    assert est.stderr == 0.0
    # Chebyshev sanity oracle on the tail plus the additive slack term
    chebyshev = v / n / (0.5 * cap - eta) ** 2 + math.exp(-n * eta)
    assert est.value <= chebyshev
    assert est.value < 0.05


def test_feinstein_n1_enumeration(uniform2):
    w = bsc(0.11)
    q = output_distribution(uniform2, w)
    eta = 0.25
    rate = 0.1
    est = feinstein_bound(MixedChannel.singleton(w), uniform2,
                          CodeParams(1, rate), SlackParams(eta=eta))
    brute = 0.0
    for x, y in itertools.product(range(2), repeat=2):
        dens = math.log(w.rows[x, y] / q[y])
        if dens <= rate + eta + 1e-9:
            brute += 0.5 * w.rows[x, y]
    assert est.value == pytest.approx(min(brute + math.exp(-eta), 1.0), abs=1e-12)


@pytest.mark.parametrize("rate", [-0.3, math.inf, -math.inf, math.nan])
def test_code_params_refuse_a_rate_no_code_has(rate):
    """log(M)/n of a code with 1 <= M < inf codewords is finite and >= 0."""
    with pytest.raises(ValueError, match="rate must be a finite number >= 0"):
        CodeParams(20, rate)


def test_feinstein_useless_channel(uniform2):
    est = feinstein_bound(MixedChannel.singleton(bsc(0.5)), uniform2,
                          CodeParams(50, 0.2), SlackParams(eta=0.1))
    assert est.value == 1.0


def test_hayashi_nagaoka_above_capacity(uniform2):
    w = bsc(0.11)
    cap = mutual_information(uniform2, w)
    q = output_distribution(uniform2, w)
    n = 400
    est = hayashi_nagaoka_bound(MixedChannel.singleton(w),
                                CodeParams(n, 1.3 * cap), q,
                                SlackParams(eta=1.0 / math.sqrt(n)), input_spec=uniform2)
    assert est.value > 0.95


def test_hayashi_nagaoka_zero_rate(uniform2):
    w = bsc(0.11)
    q = output_distribution(uniform2, w)
    est = hayashi_nagaoka_bound(MixedChannel.singleton(w), CodeParams(1, 0.0),
                                q, SlackParams(eta=0.2), input_spec=uniform2)
    brute = 0.0
    for x, y in itertools.product(range(2), repeat=2):
        dens = math.log(w.rows[x, y] / q[y])
        if dens <= 0.0 - 0.2 + 1e-9:
            brute += 0.5 * w.rows[x, y]
    assert est.value == pytest.approx(max(brute - math.exp(-0.2), 0.0), abs=1e-12)


def test_hayashi_nagaoka_step_exact(uniform2):
    # single-atom spectrum at zero: the tail is a step in the rate
    w = bsc(0.5)
    est = hayashi_nagaoka_bound(MixedChannel.singleton(w), CodeParams(30, 0.1),
                                np.array([0.5, 0.5]), SlackParams(eta=0.02),
                                input_spec=InputDist([0.5, 0.5]))
    expected = 1.0 - math.exp(-30 * 0.02)  # P{0 <= 0.1 - 0.02} = 1
    assert est.value == pytest.approx(expected, abs=1e-12)


def test_mixed_converse_reduces_to_hn(uniform2):
    w = bsc(0.11)
    q = output_distribution(uniform2, w)
    code = CodeParams(60, 0.3)
    slack = SlackParams(eta=0.05)
    single = MixedChannel.singleton(w)
    a = hayashi_nagaoka_bound(single, code, q, slack, input_spec=uniform2)
    b = mixed_converse_bound(single, code, [q], slack, input_spec=uniform2)
    assert a.value == pytest.approx(b.value, abs=1e-15)


def test_mixed_converse_approaches_weaker_weight(uniform2):
    mix = MixedChannel(((0.3, bsc(0.05)), (0.7, bsc(0.2))))
    outs = [output_distribution(uniform2, c) for c in mix.components]
    caps = [mutual_information(uniform2, c) for c in mix.components]
    rate = 0.5 * (caps[0] + caps[1])
    n = 3000
    est = mixed_converse_bound(mix, CodeParams(n, rate), outs,
                               SlackParams(eta=4.0 / n), input_spec=uniform2)
    assert est.value == pytest.approx(0.7, abs=0.02)


def test_mixed_converse_eta_large_clips_to_zero(uniform2):
    mix = MixedChannel(((0.5, bsc(0.05)), (0.5, bsc(0.2))))
    outs = [output_distribution(uniform2, c) for c in mix.components]
    est = mixed_converse_bound(mix, CodeParams(20, 0.3), outs,
                               SlackParams(eta=50.0), input_spec=uniform2)
    assert est.value == 0.0


def test_normal_approx():
    assert normal_approx(100, 0.3, 0.0) == pytest.approx(30.0)
    assert normal_approx(10_000, 0.3466, -0.5) == pytest.approx(3466.0 - 50.0)
    with pytest.raises(ValueError):
        normal_approx(0, 0.3, 0.0)


def test_mc_tail_trivial_thresholds(uniform2):
    w = bsc(0.11)
    q = output_distribution(uniform2, w)
    parts = letter_parts(w, uniform2, q, 10)
    assert mc_tail(parts, 10, math.inf, 100, seed=1).value == 1.0
    assert mc_tail(parts, 10, -math.inf, 100, seed=1).value == 0.0


def test_mc_tail_reproducible_across_threads(uniform2):
    w = bsc(0.2)
    q = output_distribution(uniform2, w)
    thresh = mutual_information(uniform2, w)
    parts = letter_parts(w, uniform2, q, 50)
    a = mc_tail(parts, 50, thresh, trials=20_000, seed=99, threads=1)
    b = mc_tail(parts, 50, thresh, trials=20_000, seed=99, threads=4)
    assert a.value == b.value
    assert a.trials == 20_000 and a.seed == 99


def _sampler_cases(rng, count):
    """(w, input spec, q, n, threshold, numer) over random letter laws.

    Rows get random zeros and row 0 is noiseless, so under a composition
    letter 0 has a single atom; i.i.d. and fixed-composition inputs each come
    with and without a numerator.
    """
    for _ in range(count):
        kx, ky = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        rows = rng.dirichlet(np.ones(ky), size=kx) * (rng.random((kx, ky)) < 0.6)
        rows[0] = 0.0
        rows[np.arange(kx), rng.integers(0, ky, kx)] += 1.0 - rows.sum(axis=1)
        w = Dmc(rows)
        p = InputDist(rng.dirichlet(np.ones(kx)))
        q = output_distribution(p, w)
        n = int(rng.integers(3, 12))
        comp = TypeClass(rng.multinomial(n - 1, p.probs) + np.eye(kx, dtype=int)[0], n)
        numer = w.rows + rng.random((kx, ky))
        for num in (None, numer):
            z = per_letter_spectrum(p, w, q, num).mean() + float(rng.normal(0.0, 0.05))
            yield w, p, q, n, z, num
            yield w, comp, q, n, z, num


def _edge_cases(rng):
    """(w, input spec, q, n, threshold, numer) on letter laws at the sampler's edges."""
    # ten atoms of mass 0.1 each: their cumulative sum ends at 1 - 2^-53
    tenths = Dmc([[0.1] * 10, rng.dirichlet(np.ones(10))])
    q = rng.dirichlet(np.ones(10))
    yield tenths, TypeClass(np.array([9, 0]), 9), q, 9, float(np.mean(np.log(0.1 / q))), None
    # the largest density sits on a 1e-200 atom, and next to it one of 1e-301
    # that the probability floor drops
    for _ in range(4):
        rows = np.zeros((2, 5))
        rows[:, :3] = rng.dirichlet(np.ones(3), size=2)
        rows[0, 3:] = 1e-200, 1e-301
        w, p = Dmc(rows), InputDist(rng.dirichlet(np.ones(2)))
        q = output_distribution(p, w)
        n = int(rng.integers(5, 20))
        z = per_letter_spectrum(p, w, q).mean() + float(rng.normal(0.0, 0.05))
        yield w, p, q, n, z, None
        yield w, TypeClass(np.array([n - 2, 2]), n), q, n, z, None
    # rows and input each sum to 1 + 9e-13, inside SUM_TOL, and the last
    # atom is tiny, so all but the last atom sum to more than 1 + 1e-12
    e = 9e-13
    w, p = Dmc([[0.3 + e, 0.7 - 1e-14, 1e-14], [0.6, 0.4 + e, 0.0]]), InputDist([0.5 + e, 0.5])
    q = output_distribution(p, w)
    yield w, p, q, 12, per_letter_spectrum(p, w, q).mean(), None


def _binomial_p_exceeds_one(probs):
    """Whether numpy's multinomial draws some atom j with a binomial p above 1:
    it uses p_j / (1 - p_0 - ... - p_(j-1)), with the remainder by running subtraction."""
    rest = 1.0
    for pj in probs[:-1]:
        if pj / rest > 1.0:
            return True
        rest -= pj
    return False


def test_mc_tail_matches_exact_tail():
    """Count-vector sampling agrees with the exact convolution within 4.5 sigma."""
    rng = np.random.default_rng(17)
    cases = list(_sampler_cases(rng, 6)) + list(_edge_cases(rng))
    trials = 20_000
    sums_below_one = one_atom_letters = p_above_one = head_above_one = inner = 0
    for w, spec, q, n, z, numer in cases:
        parts = letter_parts(w, spec, q, n, numer)
        for a, _ in parts:
            sums_below_one += np.cumsum(a.probs)[-1] < 1.0
            one_atom_letters += len(a.values) == 1
            # the sampler passes the law normalized to sum 1
            p_above_one += _binomial_p_exceeds_one(a.probs / a.probs.sum())
            head_above_one += a.probs[:-1].sum() > 1.0 + 1e-12
        exact = aggregate_spectrum(parts).cdf_at(n * z)
        est = mc_tail(parts, n, z, trials, int(rng.integers(2**40)))
        assert abs(est.value - exact) <= 4.5 * math.sqrt(exact * (1 - exact) / trials) + 1e-12
        inner += 0.0 < est.value < 1.0
    # the laws reach every edge case, and most estimates are not a bare 0 or 1
    assert sums_below_one and one_atom_letters and p_above_one and head_above_one
    assert inner > len(cases) // 2


def test_mc_tail_is_identical_across_threads():
    rng = np.random.default_rng(23)
    for w, spec, q, n, z, numer in _sampler_cases(rng, 2):
        for trials in (MC_CHUNK + 37, 2 * MC_CHUNK + 1, 5):
            seed = int(rng.integers(2**40))
            one, three = (mc_tail(letter_parts(w, spec, q, n, numer), n, z, trials, seed,
                                  threads=t) for t in (1, 3))
            assert (one.value, one.stderr, one.trials) == (three.value, three.stderr, three.trials)
            assert one.trials == trials


def test_mc_tail_submits_one_task_per_worker(monkeypatch, uniform2):
    """20 chunks on 2 threads are 2 tasks of 10 chunks each, not 20 tasks; the
    estimate is the serial one, and a thread count below 1 is refused."""
    submitted = []

    class CountingPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            submitted.append(fn)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", CountingPool)
    w = bsc(0.11)
    q = output_distribution(uniform2, w)
    parts = letter_parts(w, uniform2, q, 20)
    one, two = (mc_tail(parts, 20, 0.3, trials=20 * MC_CHUNK, seed=5, threads=t)
                for t in (1, 2))
    assert len(submitted) == 2
    assert (one.value, one.stderr) == (two.value, two.stderr)
    with pytest.raises(ValueError, match="thread"):
        mc_tail(parts, 20, 0.3, trials=100, seed=5, threads=0)


def test_aggregate_spectrum_past_the_type_cap_raises_the_cap_error(uniform2):
    """A 2x2 channel at n = 400 has four letter atoms and C(403, 3) count vectors."""
    w = Dmc([[0.9, 0.1], [0.25, 0.75]])
    with pytest.raises(EnumerationCapError, match=f"10827401 types, past the cap {ENUM_CAP}"):
        aggregate_spectrum(letter_parts(w, uniform2, output_distribution(uniform2, w), 400))


def test_mc_tail_cost_does_not_grow_with_n(uniform2):
    """At n = 10^9 the normalized density is Gaussian in the limit (Berry-Esseen
    error near 1e-5); drawing letters one by one would need gigabytes."""
    w = bsc(0.11)
    q = output_distribution(uniform2, w)
    a = per_letter_spectrum(uniform2, w, q)
    mean = a.mean()
    sd = math.sqrt(float(a.probs @ (a.values - mean) ** 2))
    n, trials, t = 10**9, 4000, 0.7
    est = mc_tail(letter_parts(w, uniform2, q, n), n, mean + t * sd / math.sqrt(n), trials,
                  seed=3)
    phi = gaussian_cdf(t)
    assert est.trials == trials
    assert abs(est.value - phi) <= 4 * math.sqrt(phi * (1 - phi) / trials) + 1e-4


def test_berry_esseen_consistency(uniform2):
    """Exact i.i.d. tails sit within Shevtsova's Berry-Esseen bound of the Gaussian,
    with the letter's own mean, variance and third absolute central moment."""
    rng = np.random.default_rng(61)
    for _ in range(10):
        w = random_dmc(rng)
        q = output_distribution(uniform2, w)
        a = per_letter_spectrum(uniform2, w, q)
        mean = a.mean()
        v = float(a.probs @ (a.values - mean) ** 2)
        rho = float(a.probs @ np.abs(a.values - mean) ** 3)
        if v < 1e-6:
            continue
        n = int(rng.integers(10, 60))
        law = aggregate_spectrum(letter_parts(w, uniform2, q, n))
        budget = 0.4748 * rho / (v**1.5 * math.sqrt(n))
        for t in (-1.5, -0.5, 0.0, 0.8, 2.0):
            thresh = mean + t * math.sqrt(v / n)
            gap = abs(law.cdf_at(n * thresh) - gaussian_cdf(t))
            assert gap <= budget + 1e-9


def test_sandwich_coherence(uniform2):
    w = bsc(0.11)
    mix = MixedChannel.singleton(w)
    q = output_distribution(uniform2, w)
    n, eps = 200, 0.1
    slack = SlackParams(eta=2.0 / n)

    def crossing(fn, lo, hi):
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if fn(mid) <= eps:
                lo = mid
            else:
                hi = mid
        return lo

    r_ach = crossing(lambda r: feinstein_bound(
        mix, uniform2, CodeParams(n, r), slack).value, 0.05, 0.6)
    r_con = crossing(lambda r: mixed_converse_bound(
        mix, CodeParams(n, r), [q], slack, input_spec=uniform2).value,
        0.05, 0.6)
    assert r_ach <= r_con + 1e-9


def test_composition_input_spec(uniform2):
    from mixcap import TypeClass

    w = bsc(0.11)
    q = output_distribution(uniform2, w)
    comp = TypeClass(np.array([3, 5]), 8)
    law = aggregate_spectrum(letter_parts(w, comp, q, 8))
    # mean of the aggregate equals n times the composition-weighted density mean
    expected = sum(
        comp.counts[x] * sum(w.rows[x, y] * math.log(w.rows[x, y] / q[y])
                             for y in range(2) if w.rows[x, y] > 0)
        for x in range(2))
    assert law.mean() == pytest.approx(expected, abs=1e-10)


def test_bound_values_stay_in_unit_interval(uniform2):
    # generic 2x2 channels have four-valued spectra whose exact supports grow
    # cubically; the MC fallback covers the blowups
    rng = np.random.default_rng(8)
    for _ in range(8):
        w = random_dmc(rng)
        mix = MixedChannel.singleton(w)
        q = output_distribution(uniform2, w)
        n = int(rng.integers(5, 80))
        rate = float(rng.uniform(0.01, 0.8))
        eta = float(rng.uniform(0.01, 0.5))
        f = feinstein_bound(mix, uniform2, CodeParams(n, rate),
                            SlackParams(eta=eta), mc_trials=20_000, seed=4)
        h = hayashi_nagaoka_bound(mix, CodeParams(n, rate), q,
                                  SlackParams(eta=eta), input_spec=uniform2,
                                  mc_trials=20_000, seed=4)
        assert 0.0 <= f.value <= 1.0
        assert 0.0 <= h.value <= 1.0


def _brute_hn_mixture(mixed, x_words, x_probs, q, n, rate, eta):
    """HN mixture bound summed over every (x, y) word pair: max-envelope numerator."""
    env = np.stack([c.rows for c in mixed.components]).max(axis=0)
    y_words = np.array(list(itertools.product(range(mixed.num_outputs), repeat=n)))
    log_q = np.log(np.asarray(q))
    cut = (rate - eta - math.log(mixed.num_atoms) / n) * n + 1e-9
    total = 0.0
    for w_k, comp in mixed.atoms:
        for x, px in zip(x_words, x_probs):
            probs = px * np.prod(comp.rows[x[None, :], y_words], axis=1)
            stat = np.sum(np.log(env[x[None, :], y_words]) - log_q[y_words], axis=1)
            total += w_k * probs[stat <= cut].sum()
    return min(max(total - math.exp(-n * eta), 0.0), 1.0)


@pytest.mark.parametrize("rate", [0.6, 0.7, 0.8, 1.2])
def test_hn_mixture_matches_output_word_enumeration(rate):
    mixed = MixedChannel(((0.4, Dmc([[0.9, 0.1], [0.25, 0.75]])),
                          (0.6, Dmc([[0.7, 0.3], [0.05, 0.95]]))))
    p = InputDist([0.3, 0.7])
    q = sum(w * output_distribution(p, c) for w, c in mixed.atoms)
    slack = SlackParams(eta=0.1)
    # i.i.d. input: sum over input words too
    n = 6
    x_words = np.array(list(itertools.product(range(2), repeat=n)))
    x_probs = np.prod(p.probs[x_words], axis=1)
    est = hayashi_nagaoka_bound(mixed, CodeParams(n, rate), q, slack, input_spec=p)
    assert est.value == pytest.approx(
        _brute_hn_mixture(mixed, x_words, x_probs, q, n, rate, 0.1), abs=1e-12)
    # fixed composition: one input word of that type
    comp = TypeClass(np.array([3, 5]), 8)
    est = hayashi_nagaoka_bound(mixed, CodeParams(8, rate), q, slack, input_spec=comp)
    assert est.value == pytest.approx(
        _brute_hn_mixture(mixed, [comp.canonical_word()], [1.0], q, 8, rate, 0.1), abs=1e-12)


def test_mixture_mc_stderr_is_honest():
    # two identical components: shared uniforms would make the two estimates
    # equal, so their spread would be sqrt(2) times the reported stderr
    mixed = MixedChannel(((0.5, bsc(0.11)), (0.5, bsc(0.11))))
    p = InputDist([0.5, 0.5])
    outs = [output_distribution(p, c) for c in mixed.components]
    code, slack = CodeParams(20, 0.85), SlackParams(eta=0.5)
    ests = [mixed_converse_bound(mixed, code, outs, slack, input_spec=p, mc_trials=400,
                                 seed=s, force_mc=True) for s in range(200)]
    assert all(e.kind == "mixed_converse" and e.trials == 800 for e in ests)
    spread = np.std([e.value for e in ests], ddof=1)
    reported = math.sqrt(np.mean([e.stderr ** 2 for e in ests]))
    assert 0.8 <= spread / reported <= 1.25


def test_bounds_refuse_forced_mc_without_trials(uniform2):
    """force_mc without mc_trials is a ValueError (it was a TypeError inside mc_tail), and
    a reference list of the wrong length is refused, by exact_tail_bound too."""
    mixed = MixedChannel(((0.5, bsc(0.11)), (0.5, bsc(0.2))))
    outs = [output_distribution(uniform2, c) for c in mixed.components]
    code, slack = CodeParams(20, 0.3), SlackParams(eta=0.1)
    bounds = (lambda **mc: feinstein_bound(mixed, uniform2, code, slack, **mc),
              lambda **mc: hayashi_nagaoka_bound(mixed, code, outs[0], slack, uniform2, **mc),
              lambda **mc: mixed_converse_bound(mixed, code, outs, slack, uniform2, **mc))
    for bound in bounds:
        with pytest.raises(ValueError, match="force_mc needs mc_trials"):
            bound(force_mc=True)
        assert bound(mc_trials=100, force_mc=True).trials == 200
    with pytest.raises(ValueError, match="one reference output per component"):
        exact_tail_bound(mixed, code, outs[:1], uniform2)


def test_mc_tail_kind():
    w = bsc(0.11)
    est = mc_tail(letter_parts(w, InputDist([0.5, 0.5]), [0.5, 0.5], 10), 10, 0.3, 1000, 0)
    assert est.kind == "mc" and est.trials == 1000


def test_a_bound_builds_each_components_letter_parts_once(monkeypatch, uniform2):
    """mix2x2.json has two components: the bound reads two per-letter spectra on the
    Monte-Carlo path (n = 100, 176,851 types past 40,000 trials) and on the exact path
    (n = 24, 2,925 types within 10^6 trials), one per component, passed to the tail."""
    mixed, _ = load_spec(os.path.join(os.path.dirname(__file__), "golden", "mix2x2.json"))
    calls = []
    real = per_letter_spectrum

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr("mixcap.spectrum.per_letter_spectrum", counting)
    for n, trials, ran in ((100, 40_000, 80_000), (24, 10**6, 0)):
        calls.clear()
        est = feinstein_bound(mixed, uniform2, CodeParams(n, 0.02), SlackParams(eta=0.05),
                              mc_trials=trials, seed=1)
        assert len(calls) == mixed.num_atoms == 2
        assert est.trials == ran
