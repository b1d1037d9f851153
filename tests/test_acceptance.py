"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is pinned here; oracles are independent of the code paths
they check (ternary search, grid scans, full enumeration, closed forms).
"""

import math
import time

import numpy as np
import pytest

from mixcap import (
    CodeParams,
    CostSpec,
    InputDist,
    MixedChannel,
    SlackParams,
    channel_dispersion,
    check_well_ordered,
    decomposition_check,
    eps_capacity,
    expurgated_space,
    feinstein_bound,
    gaussian_inv,
    mixture_converse_enumeration,
    mc_tail,
    mixed_converse_bound,
    mutual_information,
    normal_approx,
    output_distribution,
    per_letter_spectrum,
    aggregate_spectrum,
    quantized_type,
    rate_quantile,
    second_order_well_ordered,
)
from mixcap.cli import run_command
from conftest import bsc, bsc_capacity, random_dmc, random_mixture, z_channel_matching


def _report(k: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def ternary_argmax_info(w):
    """Independent capacity oracle for |X| = 2: ternary search on I(p)."""

    def f(p):
        return mutual_information(InputDist([p, 1.0 - p]), w)

    lo, hi = 0.0, 1.0
    for _ in range(300):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if f(m1) < f(m2):
            lo = m1
        else:
            hi = m2
    return 0.5 * (lo + hi)


def test_acceptance_1_singleton_second_order():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        w = random_dmc(rng)
        mix = MixedChannel.singleton(w)
        p_star = ternary_argmax_info(w)
        v = channel_dispersion(InputDist([p_star, 1.0 - p_star]), w)
        for eps in (0.01, 0.1, 0.5, 0.9):
            res = second_order_well_ordered(mix, eps=eps)
            oracle = math.sqrt(v) * gaussian_inv(eps)
            worst = max(worst, abs(res.s_value - oracle))
    elapsed = time.monotonic() - start
    _report(1, worst <= 1e-6 and elapsed < 10.0,
            f"singleton second-order vs sqrt(V) Ginv(eps): worst gap {worst:.2e}, "
            f"{elapsed:.1f}s")


def test_acceptance_2_rate_quantile_brute_scan():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    p = InputDist([0.5, 0.5])
    worst = 0.0
    step = 1e-5
    for _ in range(50):
        mix = random_mixture(rng, max_atoms=5)
        eps = float(rng.uniform(0.0, 0.97))
        got = rate_quantile(mix, p, eps)
        infos = np.array([mutual_information(p, c) for c in mix.components])
        order = np.argsort(infos)
        sorted_infos = infos[order]
        cumw = np.concatenate(([0.0], np.cumsum(mix.weights[order])))
        grid = np.arange(sorted_infos[0] - 2 * step, sorted_infos[-1] + 3 * step, step)
        mass_below = cumw[np.searchsorted(sorted_infos, grid, side="left")]
        feasible = grid[mass_below <= eps]
        oracle = feasible[-1]
        worst = max(worst, abs(got - oracle))
    elapsed = time.monotonic() - start
    _report(2, worst <= step + 1e-9 and elapsed < 30.0,
            f"rate quantile vs 1e-5 brute scan on 50 mixtures: worst gap {worst:.2e}, "
            f"{elapsed:.1f}s")


def test_acceptance_3_well_ordered_reduction(tmp_path):
    start = time.monotonic()
    spec = tmp_path / "family.json"
    spec.write_text(
        '{"generator": {"family": "bsc", "params": ['
        '{"p": 0.05, "weight": 0.3}, {"p": 0.11, "weight": 0.3}, '
        '{"p": 0.2, "weight": 0.4}]}}')
    worst = 0.0
    for eps in (0.0, 0.25, 0.5, 0.75):
        _, out_full, _ = run_command(["eps-capacity", str(spec), "--eps", str(eps)])
        _, out_wo, _ = run_command(["eps-capacity", str(spec), "--eps", str(eps),
                                    "--well-ordered"])
        val_full = float(out_full.splitlines()[1].split(",")[1])
        val_wo = float(out_wo.splitlines()[1].split(",")[1])
        worst = max(worst, abs(val_full - val_wo))
    elapsed = time.monotonic() - start
    _report(3, worst <= 1e-4 and elapsed < 60.0,
            f"full sup vs capacity-quantile on the BSC family: worst gap {worst:.2e}, "
            f"{elapsed:.1f}s")


def test_acceptance_4_eps_zero_essential_infimum():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(20):
        mix = random_mixture(rng, max_atoms=4)
        res = eps_capacity(mix, eps=0.0)
        floor = min(mutual_information(res.argmax_input, c) for c in mix.components)
        worst = max(worst, abs(res.capacity - floor))
    _report(4, worst <= 1e-9,
            f"eps=0 capacity equals min-atom information at the argmax: worst gap {worst:.2e}")


def test_acceptance_5_decomposition_lemmas():
    start = time.monotonic()
    mix = MixedChannel(((0.5, bsc(0.05)), (0.5, bsc(0.2))))
    p = InputDist([0.5, 0.5])
    outs = [output_distribution(p, c) for c in mix.components]
    slack = SlackParams(eta=1.0, gamma_slack=1.0)
    z_grid = np.linspace(0.02, 1.7, 50)
    violations = 0
    for n in (8, 12, 16):
        comp = quantized_type(p, n)
        report = decomposition_check(mix, comp, outs, n, slack, z_grid)
        violations += len(report.failures)
    comp8 = quantized_type(p, 8)
    worst8 = 0.0
    for rate, eta in ((0.8, 0.3), (0.5, 0.2), (0.45, 0.1)):
        conv = mixed_converse_bound(mix, CodeParams(8, rate), outs,
                                    SlackParams(eta=eta), input_spec=comp8).value
        brute = mixture_converse_enumeration(mix, comp8, outs, rate, eta)
        worst8 = max(worst8, abs(conv - brute))
    elapsed = time.monotonic() - start
    _report(5, violations == 0 and worst8 <= 1e-12 and elapsed < 120.0,
            f"decomposition inequalities exact at n=8,12,16 ({violations} violations); "
            f"mixture converse vs 256-word enumeration gap {worst8:.2e}; {elapsed:.1f}s")


def test_acceptance_6_expurgation_mass_bound():
    rng = np.random.default_rng(606)
    ok = True
    for _ in range(10):
        weights = rng.dirichlet(np.ones(2))
        mix = MixedChannel(((float(weights[0]), random_dmc(rng)),
                            (float(weights[1]), random_dmc(rng))))
        p = InputDist([0.5, 0.5])
        outs = [output_distribution(p, c) for c in mix.components]
        for n in (4, 8, 16):
            rep = expurgated_space(mix, outs, n)
            ok &= rep.mass >= rep.bound - 1e-12
    _report(6, ok, "expurgated mass dominates its guarantee at n = 4, 8, 16 "
                   "on 10 random 2-atom mixtures")


def test_acceptance_7_normal_approx_coherence():
    start = time.monotonic()
    w = bsc(0.11)
    mix = MixedChannel.singleton(w)
    p = InputDist([0.5, 0.5])
    q = output_distribution(p, w)
    n, eps = 2000, 0.1
    eta = 5.0 / n
    slack = SlackParams(eta=eta)
    cap = mutual_information(p, w)
    v = channel_dispersion(p, w)
    target = normal_approx(n, cap, math.sqrt(v) * gaussian_inv(eps))

    def crossing(fn, lo, hi):
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if fn(mid) <= eps:
                lo = mid
            else:
                hi = mid
        return lo

    r_ach = crossing(lambda r: feinstein_bound(
        mix, p, CodeParams(n, r), slack).value, 0.5 * cap, cap)
    r_con = crossing(lambda r: mixed_converse_bound(
        mix, CodeParams(n, r), [q], slack, input_spec=p).value,
        0.5 * cap, cap + 0.05)
    gap_a = (n * r_ach - target) / math.sqrt(n)
    gap_c = (n * r_con - target) / math.sqrt(n)
    elapsed = time.monotonic() - start
    ok = (n * r_ach <= target <= n * r_con
          and abs(gap_a) < 0.5 and abs(gap_c) < 0.5 and elapsed < 120.0)
    _report(7, ok,
            f"bound crossings bracket nC + sqrt(n V) Ginv(eps): gaps/sqrt(n) "
            f"{gap_a:+.3f} / {gap_c:+.3f}, {elapsed:.1f}s")


def test_acceptance_8_mc_exact_agreement():
    start = time.monotonic()
    rng = np.random.default_rng(808)
    p = InputDist([0.5, 0.5])
    checked = 0
    ok = True
    for i in range(20):
        if i % 2 == 0:
            flip = float(rng.uniform(0.05, 0.45))
            w = bsc(flip)
            n = int(rng.integers(50, 201))
        else:
            w = random_dmc(rng)
            n = int(rng.integers(5, 61))
        q = output_distribution(p, w)
        stats_mean = per_letter_spectrum(p, w, q).mean()
        sd = math.sqrt(max(channel_dispersion(p, w), 1e-8) / n)
        thresh = stats_mean + float(rng.uniform(-1.5, 1.5)) * sd
        exact = aggregate_spectrum(w, p, q, n).tail_leq(thresh)
        est = mc_tail(w, p, q, n, thresh, trials=100_000, seed=1000 + i)
        est4 = mc_tail(w, p, q, n, thresh, trials=100_000, seed=1000 + i, threads=4)
        ok &= est.value == est4.value
        if est.stderr > 0:
            ok &= abs(est.value - exact) <= 4.0 * est.stderr
            checked += 1
    elapsed = time.monotonic() - start
    _report(8, ok and checked >= 15,
            f"MC tails within 4 stderr of exact convolution on {checked} triples, "
            f"bit-identical across thread counts; {elapsed:.1f}s")


def test_acceptance_9_quantized_type_contract():
    rng = np.random.default_rng(909)
    ok = True
    for _ in range(200):
        k = int(rng.integers(2, 6))
        p0 = InputDist(rng.dirichlet(np.ones(k)))
        n = int(rng.integers(1, 80))
        cost = CostSpec(rng.uniform(0.0, 3.0, size=k))
        t = quantized_type(p0, n, cost)
        cost_p0 = float(p0.probs @ cost.costs)
        cost_t = float(t.fractions @ cost.costs)
        ok &= cost_t <= cost_p0 + 1e-12
        ok &= float(np.max(np.abs(t.fractions - p0.probs))) <= k / n
    _report(9, ok, "200 random quantized types preserve cost and deviate "
                   "by at most |X|/n per letter")


def test_acceptance_10_well_orderedness_discrimination():
    family = MixedChannel(((0.3, bsc(0.05)), (0.3, bsc(0.11)), (0.4, bsc(0.2))))
    fam_report = check_well_ordered(family)
    zch = z_channel_matching(bsc_capacity(0.11))
    pair = MixedChannel(((0.5, bsc(0.11)), (0.5, zch)))
    pair_report = check_well_ordered(pair)
    ok = fam_report.is_well_ordered and not pair_report.is_well_ordered \
        and len(pair_report.violations) >= 1
    _report(10, ok,
            f"BSC family passes; equal-capacity BSC/Z pair flagged with "
            f"{len(pair_report.violations)} ordering violations")
