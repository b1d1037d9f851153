import math

import numpy as np
import pytest

import mixcap.channel
import mixcap.first_order
import mixcap.second_order
import mixcap.well_ordered
from mixcap import (
    CostSpec,
    Dmc,
    InputDist,
    MixedChannel,
    NotWellOrderedError,
    channel_dispersion,
    constrained_capacity,
    eps_capacity,
    gaussian_inv,
    gw,
    mutual_information,
    rate_quantile,
    second_order_lb,
    second_order_well_ordered,
    solve_s,
)
from mixcap.channel import informations
from conftest import bsc, random_dmc, z_channel_matching


def test_gw_singleton_examples(uniform2):
    mix = MixedChannel.singleton(bsc(0.11))
    r = mutual_information(uniform2, bsc(0.11))
    v = channel_dispersion(uniform2, bsc(0.11))
    assert gw(mix, uniform2, r, 0.0) == pytest.approx(0.5)
    assert gw(mix, uniform2, r, 2.0 * math.sqrt(v)) == pytest.approx(
        0.9772498680518208, abs=1e-9)
    # component strictly below the rate contributes its whole mass
    assert gw(mix, uniform2, r + 0.1, -50.0) == 1.0
    assert gw(mix, uniform2, r + 0.1, 50.0) == 1.0


def test_gw_pair_example(uniform2, bsc_pair):
    r = mutual_information(uniform2, bsc(0.05))
    assert gw(bsc_pair, uniform2, r, 0.0) == pytest.approx(0.75)


def test_gw_monotone_and_limits(uniform2, bsc_pair):
    r = mutual_information(uniform2, bsc(0.05))
    values = [gw(bsc_pair, uniform2, r, s) for s in np.linspace(-3, 3, 25)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    assert gw(bsc_pair, uniform2, r, -1e6) == pytest.approx(0.5, abs=1e-12)
    assert gw(bsc_pair, uniform2, r, 1e6) == pytest.approx(1.0, abs=1e-12)
    # at S = -inf and +inf, G_w is the strictly-below mass, then plus the at-rate mass
    assert gw(bsc_pair, uniform2, r, -math.inf) == 0.5
    assert gw(bsc_pair, uniform2, r, math.inf) == 0.5 + 0.5


def test_solve_s_singleton_gaussian(uniform2):
    mix = MixedChannel.singleton(bsc(0.11))
    r = mutual_information(uniform2, bsc(0.11))
    v = channel_dispersion(uniform2, bsc(0.11))
    for eps in (0.05, 0.3, 0.5, 0.9):
        res = solve_s(mix, uniform2, r, eps)
        assert res.s_value == pytest.approx(math.sqrt(v) * gaussian_inv(eps), abs=1e-9)
        assert not res.open_boundary


def test_solve_s_zero_variance_step(uniform2):
    noiseless = Dmc([[1.0, 0.0], [0.0, 1.0]])
    mix = MixedChannel.singleton(noiseless)
    r = math.log(2)
    res = solve_s(mix, uniform2, r, eps=0.25)
    assert res.s_value == 0.0
    assert res.open_boundary


def test_solve_s_base_mass_exceeds_eps(uniform2):
    mix = MixedChannel(((0.6, bsc(0.2)), (0.4, bsc(0.05))))
    r = mutual_information(uniform2, bsc(0.05))
    res = solve_s(mix, uniform2, r, eps=0.5)
    assert res.s_value == -math.inf


def test_solve_s_all_mass_within_eps(uniform2):
    mix = MixedChannel.singleton(bsc(0.11))
    r = mutual_information(uniform2, bsc(0.11)) - 0.01
    res = solve_s(mix, uniform2, r, eps=0.4)  # w{I <= R} = 0 <= eps
    assert res.s_value == math.inf


def test_solve_s_grid_scan_agreement(uniform2):
    rng = np.random.default_rng(41)
    for _ in range(12):
        mix = MixedChannel(
            tuple((float(wt), random_dmc(rng)) for wt in rng.dirichlet(np.ones(3))))
        infos = np.array([mutual_information(uniform2, c) for c in mix.components])
        # pin the rate at the largest atom so the at-rate mass is positive,
        # and pick eps inside (base, base + at-mass) so the solution is finite
        r = float(infos.max())
        base = float(mix.weights[infos < r - 1e-9].sum())
        at = float(mix.weights[np.abs(infos - r) <= 1e-9].sum())
        eps = base + float(rng.uniform(0.2, 0.8)) * at
        res = solve_s(mix, uniform2, r, eps)
        assert math.isfinite(res.s_value)
        # windowed 1-D scan around the boundary at step 1e-4
        grid = np.arange(res.s_value - 0.05, res.s_value + 0.05, 1e-4)
        feas = [s for s in grid if gw(mix, uniform2, r, s) <= eps]
        assert feas, "solver boundary sits below every feasible grid point"
        oracle = feas[-1]
        assert abs(res.s_value - oracle) <= 1e-3


# The paper's canonical equation: at r = C, sum over the at-capacity atoms of
# w_k Psi_k(S) = eps - w{I < C}, whose solution is solve_s at the capacity.


def test_canonical_singleton(uniform2):
    mix = MixedChannel.singleton(bsc(0.11))
    cap = mutual_information(uniform2, bsc(0.11))
    v = channel_dispersion(uniform2, bsc(0.11))
    for eps in (0.1, 0.5, 0.8):
        res = solve_s(mix, uniform2, cap, eps)
        assert res.s_value == pytest.approx(math.sqrt(v) * gaussian_inv(eps), abs=1e-9)


def test_canonical_empty_theta2(uniform2, bsc_pair):
    # capacity strictly between the two atom informations: no atom at the rate
    a = mutual_information(uniform2, bsc(0.2))
    b = mutual_information(uniform2, bsc(0.05))
    res = solve_s(bsc_pair, uniform2, 0.5 * (a + b), eps=0.5)
    assert res.s_value == math.inf


def test_canonical_pair_example(uniform2, bsc_pair):
    cap = mutual_information(uniform2, bsc(0.05))
    res = solve_s(bsc_pair, uniform2, cap, eps=0.75)
    assert res.s_value == pytest.approx(0.0, abs=1e-9)


def test_second_order_lb_singleton_matches_formula():
    rng = np.random.default_rng(77)
    for _ in range(5):
        w = random_dmc(rng)
        mix = MixedChannel.singleton(w)
        res_cap = constrained_capacity(w)
        v = channel_dispersion(res_cap.optimal_input, w)
        for eps in (0.1, 0.5, 0.9):
            lb = second_order_lb(mix, eps=eps)
            wo = second_order_well_ordered(mix, eps=eps)
            oracle = math.sqrt(v) * gaussian_inv(eps)
            assert lb.s_value == pytest.approx(oracle, abs=1e-6)
            assert wo.s_value == pytest.approx(oracle, abs=1e-6)
            assert wo.method == "exact-formula"
            assert lb.method == "lower-bound"


def _tilted_variance(rows, p, costs, gamma, lam):
    """Variance of i(x;y) - lam (c(x) - gamma) under P x W, with i = log W(y|x) / PW(y)."""
    dens = np.log(rows) - np.log(p @ rows) - lam * (costs - gamma)[:, None]
    joint = p[:, None] * rows
    mean = (joint * dens).sum()
    return float((joint * (dens - mean) ** 2).sum())


def test_second_order_binding_budget_matches_formula():
    """Binding-budget singletons: both paths give sqrt(V) Phi^-1(eps), V the variance of the
    tilted density at the solver's input (Kostina & Verdu, IEEE TIT 2015); by the KKT
    conditions its conditional means all equal the capacity, so V is the dispersion."""
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 8:
        k = int(rng.integers(2, 5))
        w = random_dmc(rng, k, int(rng.integers(2, 5)))
        costs = rng.uniform(0.0, 1.0, k)
        cost = CostSpec(costs, float(0.5 * (costs.min() + costs.mean())))
        solve = constrained_capacity(w, cost)
        if not solve.multiplier > 1e-6:  # a slack budget: the free case of acceptance 1
            continue
        checked += 1
        v = _tilted_variance(w.rows, solve.optimal_input.probs, costs, cost.gamma,
                             solve.multiplier)
        mix = MixedChannel.singleton(w)
        for eps in (0.1, 0.3, 0.8):
            oracle = math.sqrt(v) * gaussian_inv(eps)
            assert second_order_lb(mix, cost, eps=eps).s_value == pytest.approx(oracle, abs=1e-9)
            assert second_order_well_ordered(mix, cost, eps).s_value == pytest.approx(
                oracle, abs=1e-9)


def test_second_order_lb_off_capacity(uniform2):
    mix = MixedChannel.singleton(bsc(0.11))
    cap = mutual_information(uniform2, bsc(0.11))
    below = second_order_lb(mix, r=cap - 0.01, eps=0.2)
    above = second_order_lb(mix, r=cap + 0.01, eps=0.2)
    assert below.s_value == math.inf
    assert above.s_value == -math.inf


def test_second_order_lb_reads_each_candidate_once(monkeypatch):
    """mix2x2 at eps = 0.3 has one optimal input: after its eps_capacity,
    second_order_lb makes one call of the information kernel, over both atoms,
    and gw_at_solution comes from that same split."""
    mix = MixedChannel(((0.4, Dmc([[0.9, 0.1], [0.25, 0.75]])),
                        (0.6, Dmc([[0.7, 0.3], [0.05, 0.95]]))))
    calls, at_capacity = [], []

    def counted(probs, rows, log_rows):
        calls.append(len(rows))
        return informations(probs, rows, log_rows)

    def counted_capacity(*args):
        res = eps_capacity(*args)
        at_capacity.append(len(calls))
        return res

    for module in (mixcap.channel, mixcap.first_order, mixcap.second_order,
                   mixcap.well_ordered):
        monkeypatch.setattr(module, "informations", counted)
    monkeypatch.setattr(mixcap.second_order, "eps_capacity", counted_capacity)
    res = second_order_lb(mix, eps=0.3)
    assert [calls[at:] for at in at_capacity] == [[2]]
    assert res.gw_at_solution == gw(mix, res.input, res.rate, res.s_value)


def test_second_order_well_ordered_pair(bsc_pair, uniform2):
    # eps = 0.6: rate is the larger capacity, target mass 0.1 on that atom
    res = second_order_well_ordered(bsc_pair, eps=0.6)
    v = channel_dispersion(uniform2, bsc(0.05))
    oracle = math.sqrt(v) * gaussian_inv((0.6 - 0.5) / 0.5)
    assert res.s_value == pytest.approx(oracle, abs=1e-7)
    assert res.theta2_mass == pytest.approx(0.5)
    # independent 1-D grid solve of the same equation
    grid = np.arange(-3, 0.5, 1e-4)
    vals = 0.5 + 0.5 * np.array(
        [0.5 * math.erfc(-s / math.sqrt(2 * v)) for s in grid])
    oracle_grid = grid[np.searchsorted(vals, 0.6) - 1]
    assert abs(res.s_value - oracle_grid) <= 1e-3


def test_second_order_well_ordered_refuses_unordered():
    zch = z_channel_matching(constrained_capacity(bsc(0.11)).capacity)
    pair = MixedChannel(((0.5, bsc(0.11)), (0.5, zch)))
    with pytest.raises(NotWellOrderedError):
        second_order_well_ordered(pair, eps=0.3)


def test_exact_path_scores_a_near_tied_pair_without_the_snap_band(uniform2):
    """BSC(0.11) and BSC(0.11 - 2e-10), weights 1/2 each, at eps 0.3: at the uniform input
    the second atom lies about 4e-10 above the rounded rate, inside the lower bound's snap
    band (1e-12, 1e-9], so the lower bound scores -inf.  The exact formula has both atoms
    at the rate, with equal dispersions to 1e-9, so S = sqrt(V) Phi^-1(0.3)."""
    mix = MixedChannel(((0.5, bsc(0.11)), (0.5, bsc(0.11 - 2e-10))))
    exact = second_order_well_ordered(mix, eps=0.3)
    assert exact.method == "exact-formula" and exact.theta2_mass == 1.0
    v = channel_dispersion(uniform2, bsc(0.11))
    assert exact.s_value == pytest.approx(math.sqrt(v) * gaussian_inv(0.3), abs=1e-7)
    assert second_order_lb(mix, eps=0.3).s_value == -math.inf


def test_second_order_well_ordered_ties_search_the_polytope():
    """Two at-rate atoms whose dispersions cross on a 2-vertex optimal polytope.

    Rows 0 + 1 = rows 2 + 3 = 2 q* with every D(W_x || q*) equal, so the
    polytope is the segment from (1/2, 1/2, 0, 0) to (0, 0, 1/2, 1/2); the
    second atom swaps the two row pairs.  At eps = 0.01 the midpoint, where
    the dispersions agree, beats both vertices.
    """

    def pair_divergence(x):  # D(q* + (x, -x, 0, 0) || q*) for uniform q* on 4 letters
        return (0.25 + x) * math.log(1 + 4 * x) + (0.25 - x) * math.log(1 - 4 * x)

    beta, lo, hi = 0.1, 0.0, 0.25
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if pair_divergence(mid) < 2 * pair_divergence(beta) else (lo, mid)
    alpha = lo
    rows = [[0.25 + alpha, 0.25 - alpha, 0.25, 0.25], [0.25 - alpha, 0.25 + alpha, 0.25, 0.25],
            [0.25 + beta, 0.25 + beta, 0.25 - beta, 0.25 - beta],
            [0.25 - beta, 0.25 - beta, 0.25 + beta, 0.25 + beta]]
    mix = MixedChannel(((0.5, Dmc(rows)), (0.5, Dmc(rows[2:] + rows[:2]))))
    eps = 0.01
    res = second_order_well_ordered(mix, eps=eps)
    p = res.input.probs
    assert p[0] == pytest.approx(p[1], abs=1e-9) and p[2] == pytest.approx(p[3], abs=1e-9)
    scan = [solve_s(mix, InputDist([t / 2, t / 2, (1 - t) / 2, (1 - t) / 2]), res.rate, eps,
                    1e-7).s_value for t in np.linspace(0.0, 1.0, 101)]
    assert res.s_value >= max(scan) - 1e-9
    assert res.s_value > max(scan[0], scan[-1]) + 1e-5


def test_second_order_theta2_empty_plus_infinity():
    mix = MixedChannel(((0.5, bsc(0.05)), (0.5, bsc(0.2))))
    # a rate strictly between the capacities: no atom at the rate, below C_eps
    res = second_order_lb(mix, r=0.3, eps=0.5)
    assert res.s_value == math.inf


def test_a_nan_rate_or_s_is_refused(bsc_pair, uniform2):
    """A NaN r or S raises ValueError before any work; +-inf stay legal."""
    for call in (lambda: second_order_lb(bsc_pair, r=math.nan, eps=0.3),
                 lambda: solve_s(bsc_pair, uniform2, math.nan, 0.3),
                 lambda: gw(bsc_pair, uniform2, 0.2, math.nan),
                 lambda: gw(bsc_pair, uniform2, math.nan, 0.0)):
        with pytest.raises(ValueError, match="must not be NaN"):
            call()
    assert gw(bsc_pair, uniform2, 0.2, math.inf) == 0.5  # only BSC(0.2) is below 0.2 nats
    assert gw(bsc_pair, uniform2, math.inf, 0.0) == 1.0
    assert solve_s(bsc_pair, uniform2, -math.inf, 0.3).s_value == math.inf
    assert second_order_lb(bsc_pair, r=math.inf, eps=0.3).s_value == -math.inf


def test_wrong_size_input_names_both_sizes():
    mix = MixedChannel(((0.5, bsc(0.05)), (0.5, bsc(0.2))))
    p = InputDist.uniform(3)
    for call in (lambda: rate_quantile(mix, p, 0.3), lambda: gw(mix, p, 0.3, 0.0),
                 lambda: solve_s(mix, p, 0.3, 0.3)):
        with pytest.raises(ValueError, match="input size 3 does not match channel inputs 2"):
            call()
