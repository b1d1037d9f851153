import itertools
import math

import numpy as np
import pytest

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
    info_stats,
    mc_tail,
    mixed_converse_bound,
    mutual_information,
    normal_approx,
    output_distribution,
    per_letter_spectrum,
)
from mixcap.types_toolkit import TypeClass, count_types
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


def test_convolve_single_atom():
    atoms = AtomDist(np.array([0.7]), np.array([1.0]))
    agg = convolve_n(atoms, 10)
    assert len(agg.values) == 1
    assert agg.values[0] == pytest.approx(7.0, abs=1e-12)


def test_convolve_binomial():
    atoms = AtomDist(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    agg = convolve_n(atoms, 3)
    assert np.allclose(agg.values, [0, 1, 2, 3])
    assert np.allclose(agg.probs, np.array([1, 3, 3, 1]) / 8)


def test_convolution_matches_mc(uniform2):
    w = bsc(0.11)
    q = output_distribution(uniform2, w)
    n = 20
    spec = aggregate_spectrum(w, uniform2, q, n)
    thresh = mutual_information(uniform2, w)
    exact = spec.tail_leq(thresh)
    est = mc_tail(w, uniform2, q, n, thresh, trials=200_000, seed=12)
    assert abs(est.value - exact) <= 3 * est.stderr + 1e-12


def test_feinstein_small_error_at_half_capacity(uniform2):
    w = bsc(0.11)
    cap = mutual_information(uniform2, w)
    v = channel_dispersion(uniform2, w)
    n = 200
    eta = 1.0 / math.sqrt(n)
    est = feinstein_bound(MixedChannel.singleton(w), uniform2,
                          CodeParams.from_rate(n, 0.5 * cap),
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
                          CodeParams.from_rate(1, rate), SlackParams(eta=eta))
    brute = 0.0
    for x, y in itertools.product(range(2), repeat=2):
        dens = math.log(w.rows[x, y] / q[y])
        if dens <= rate + eta + 1e-9:
            brute += 0.5 * w.rows[x, y]
    assert est.value == pytest.approx(min(brute + math.exp(-eta), 1.0), abs=1e-12)


def test_feinstein_useless_channel(uniform2):
    est = feinstein_bound(MixedChannel.singleton(bsc(0.5)), uniform2,
                          CodeParams.from_rate(50, 0.2), SlackParams(eta=0.1))
    assert est.value == 1.0


def test_hayashi_nagaoka_above_capacity(uniform2):
    w = bsc(0.11)
    cap = mutual_information(uniform2, w)
    q = output_distribution(uniform2, w)
    n = 400
    est = hayashi_nagaoka_bound(MixedChannel.singleton(w),
                                CodeParams.from_rate(n, 1.3 * cap), q,
                                SlackParams(eta=1.0 / math.sqrt(n)), input_spec=uniform2)
    assert est.value > 0.95


def test_hayashi_nagaoka_zero_rate(uniform2):
    w = bsc(0.11)
    q = output_distribution(uniform2, w)
    est = hayashi_nagaoka_bound(MixedChannel.singleton(w), CodeParams.from_codewords(1, 1),
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
    est = hayashi_nagaoka_bound(MixedChannel.singleton(w), CodeParams.from_rate(30, 0.1),
                                np.array([0.5, 0.5]), SlackParams(eta=0.02),
                                input_spec=InputDist([0.5, 0.5]))
    expected = 1.0 - math.exp(-30 * 0.02)  # P{0 <= 0.1 - 0.02} = 1
    assert est.value == pytest.approx(expected, abs=1e-12)


def test_mixed_converse_reduces_to_hn(uniform2):
    w = bsc(0.11)
    q = output_distribution(uniform2, w)
    code = CodeParams.from_rate(60, 0.3)
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
    est = mixed_converse_bound(mix, CodeParams.from_rate(n, rate), outs,
                               SlackParams(eta=4.0 / n), input_spec=uniform2)
    assert est.value == pytest.approx(0.7, abs=0.02)


def test_mixed_converse_eta_large_clips_to_zero(uniform2):
    mix = MixedChannel(((0.5, bsc(0.05)), (0.5, bsc(0.2))))
    outs = [output_distribution(uniform2, c) for c in mix.components]
    est = mixed_converse_bound(mix, CodeParams.from_rate(20, 0.3), outs,
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
    assert mc_tail(w, uniform2, q, 10, math.inf, 100, seed=1).value == 1.0
    assert mc_tail(w, uniform2, q, 10, -math.inf, 100, seed=1).value == 0.0


def test_mc_tail_reproducible_across_threads(uniform2):
    w = bsc(0.2)
    q = output_distribution(uniform2, w)
    thresh = mutual_information(uniform2, w)
    a = mc_tail(w, uniform2, q, 50, thresh, trials=20_000, seed=99, threads=1)
    b = mc_tail(w, uniform2, q, 50, thresh, trials=20_000, seed=99, threads=4)
    assert a.value == b.value
    assert a.trials == 20_000 and a.seed == 99


def test_berry_esseen_consistency(uniform2):
    rng = np.random.default_rng(61)
    for _ in range(10):
        w = random_dmc(rng)
        q = output_distribution(uniform2, w)
        stats = info_stats(uniform2, w)
        v, rho = stats.comp_variance, stats.third_abs_moment
        if v < 1e-6:
            continue
        n = int(rng.integers(10, 60))
        spec = aggregate_spectrum(w, uniform2, q, n)
        budget = 0.56 * rho / (v**1.5 * math.sqrt(n))
        mean = stats.mutual_info
        for t in (-1.5, -0.5, 0.0, 0.8, 2.0):
            thresh = mean + t * math.sqrt(v / n)
            gap = abs(spec.tail_leq(thresh) - gaussian_cdf(t))
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
        mix, uniform2, CodeParams.from_rate(n, r), slack).value, 0.05, 0.6)
    r_con = crossing(lambda r: mixed_converse_bound(
        mix, CodeParams.from_rate(n, r), [q], slack, input_spec=uniform2).value,
        0.05, 0.6)
    assert r_ach <= r_con + 1e-9


def test_composition_input_spec(uniform2):
    from mixcap import TypeClass

    w = bsc(0.11)
    q = output_distribution(uniform2, w)
    comp = TypeClass(np.array([3, 5]), 8)
    spec = aggregate_spectrum(w, comp, q, 8)
    d = mutual_information  # compose expected mean per letter from counts
    stats = info_stats(InputDist(comp.fractions), w, ref_output=q)
    # mean of the aggregate equals n times the composition-weighted density mean
    expected = sum(
        comp.counts[x] * sum(w.rows[x, y] * math.log(w.rows[x, y] / q[y])
                             for y in range(2) if w.rows[x, y] > 0)
        for x in range(2))
    assert spec.aggregate.mean() == pytest.approx(expected, abs=1e-10)


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
        f = feinstein_bound(mix, uniform2, CodeParams.from_rate(n, rate),
                            SlackParams(eta=eta), mc_trials=20_000, seed=4)
        h = hayashi_nagaoka_bound(mix, CodeParams.from_rate(n, rate), q,
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
    est = hayashi_nagaoka_bound(mixed, CodeParams.from_rate(n, rate), q, slack, input_spec=p)
    assert est.value == pytest.approx(
        _brute_hn_mixture(mixed, x_words, x_probs, q, n, rate, 0.1), abs=1e-12)
    # fixed composition: one input word of that type
    comp = TypeClass(np.array([3, 5]), 8)
    est = hayashi_nagaoka_bound(mixed, CodeParams.from_rate(8, rate, comp), q, slack)
    assert est.value == pytest.approx(
        _brute_hn_mixture(mixed, [comp.canonical_word()], [1.0], q, 8, rate, 0.1), abs=1e-12)


def test_mixture_mc_stderr_is_honest():
    # two identical components: shared uniforms would make the two estimates
    # equal, so their spread would be sqrt(2) times the reported stderr
    mixed = MixedChannel(((0.5, bsc(0.11)), (0.5, bsc(0.11))))
    p = InputDist([0.5, 0.5])
    outs = [output_distribution(p, c) for c in mixed.components]
    code, slack = CodeParams.from_rate(20, 0.85), SlackParams(eta=0.5)
    ests = [mixed_converse_bound(mixed, code, outs, slack, input_spec=p, mc_trials=400,
                                 seed=s, force_mc=True) for s in range(200)]
    assert all(e.kind == "mixed_converse" and e.trials == 800 for e in ests)
    spread = np.std([e.value for e in ests], ddof=1)
    reported = math.sqrt(np.mean([e.stderr ** 2 for e in ests]))
    assert 0.8 <= spread / reported <= 1.25


def test_mc_tail_kind():
    w = bsc(0.11)
    est = mc_tail(w, InputDist([0.5, 0.5]), [0.5, 0.5], 10, 0.3, 1000, 0)
    assert est.kind == "mc" and est.trials == 1000


def test_hn_type_mixture_is_product_bound_at_shifted_rate(uniform2, bsc_pair):
    """q_family="type-mixture" is the product bound at R - log(N_n + 1)/n."""
    n, rate = 40, 0.5
    slack = SlackParams(eta=0.05)
    q = output_distribution(uniform2, bsc(0.11))
    shift = math.log(count_types(2, n) + 1) / n
    for channel in (bsc(0.11), bsc_pair):
        mix = hayashi_nagaoka_bound(channel, CodeParams.from_rate(n, rate), q, slack,
                                    input_spec=uniform2, q_family="type-mixture")
        prod = hayashi_nagaoka_bound(channel, CodeParams.from_rate(n, rate - shift), q, slack,
                                     input_spec=uniform2)
        assert 0.0 < prod.value < 1.0
        assert mix.value == pytest.approx(prod.value, abs=1e-12)
        assert "type-mixture" in mix.note
    with pytest.raises(ValueError, match="unknown q family"):
        hayashi_nagaoka_bound(bsc(0.11), CodeParams.from_rate(n, rate), q, slack,
                              input_spec=uniform2, q_family="types")
