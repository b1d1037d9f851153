import itertools
import math
import os
import sys
import time
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixcap import (
    CostSpec,
    Dmc,
    InputDist,
    MixedChannel,
    check_well_ordered,
    constrained_capacity,
    eps_capacity,
    eps_capacity_well_ordered,
    mutual_information,
    rate_quantile,
    second_order_lb,
    second_order_well_ordered,
)
from mixcap.cli import load_spec
from mixcap.channel import SUM_TOL, informations
from mixcap.first_order import (LP_TOL, VALUE_DECIMALS, _game, _levels, _polish, _quantile,
                                rate_spectrum)
from mixcap.optimizer import DEFAULT_KT_TOL, DEFAULT_TOL, _basic_solutions, _dual_bound
from mixcap.second_order import DEFAULT_TIE_TOL
from mixcap.types_toolkit import EnumerationCapError
from conftest import bsc, bsc_capacity, random_dmc, random_mixture

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def brute_quantile(mixed, p, eps, step=1e-5):
    """Independent oracle: scan R and keep the largest feasible grid point."""
    infos = np.array([mutual_information(p, comp) for comp in mixed.components])
    weights = mixed.weights
    lo, hi = infos.min() - 2 * step, infos.max() + 2 * step
    best = None
    for r in np.arange(lo, hi, step):
        if weights[infos < r].sum() <= eps:
            best = r
    return best


def test_rate_quantile_singleton(uniform2):
    mix = MixedChannel.singleton(bsc(0.11))
    expected = mutual_information(uniform2, bsc(0.11))
    for eps in (0.0, 0.3, 0.99):
        assert rate_quantile(mix, uniform2, eps) == pytest.approx(expected, abs=1e-12)


def test_rate_quantile_two_atoms(uniform2, bsc_pair):
    a = mutual_information(uniform2, bsc(0.2))
    b = mutual_information(uniform2, bsc(0.05))
    assert rate_quantile(bsc_pair, uniform2, 0.3) == pytest.approx(a, abs=1e-12)
    assert rate_quantile(bsc_pair, uniform2, 0.5) == pytest.approx(b, abs=1e-12)
    assert rate_quantile(bsc_pair, uniform2, 0.0) == pytest.approx(a, abs=1e-12)


def test_rate_quantile_matches_brute_scan(uniform2):
    rng = np.random.default_rng(17)
    for _ in range(10):
        mix = random_mixture(rng, max_atoms=4)
        eps = float(rng.uniform(0, 0.95))
        got = rate_quantile(mix, uniform2, eps)
        oracle = brute_quantile(mix, uniform2, eps)
        # the scan grid itself carries float placement error around atoms
        assert abs(got - oracle) <= 1e-5 + 1e-9


def test_rate_quantile_nondecreasing_in_eps(uniform2):
    rng = np.random.default_rng(3)
    for _ in range(10):
        mix = random_mixture(rng, max_atoms=5)
        values = [rate_quantile(mix, uniform2, e) for e in np.linspace(0, 0.95, 8)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_eps_capacity_singleton_strong_converse():
    mix = MixedChannel.singleton(bsc(0.11))
    expected = bsc_capacity(0.11)
    for eps in (0.0, 0.2, 0.8):
        res = eps_capacity(mix, eps=eps)
        assert res.capacity == pytest.approx(expected, abs=1e-9)


def test_eps_capacity_bsc_pair(bsc_pair):
    assert eps_capacity(bsc_pair, eps=0.25).capacity == pytest.approx(
        bsc_capacity(0.2), abs=1e-9)
    assert eps_capacity(bsc_pair, eps=0.75).capacity == pytest.approx(
        bsc_capacity(0.05), abs=1e-9)
    assert eps_capacity(bsc_pair, eps=0.0).capacity == pytest.approx(
        bsc_capacity(0.2), abs=1e-9)


def test_eps_capacity_grid_confirms_pair(bsc_pair):
    # 2-simplex sweep oracle: the sup over P is attained at uniform for BSCs
    best = -1.0
    for p0 in np.linspace(0, 1, 201):
        p = InputDist([p0, 1 - p0])
        best = max(best, rate_quantile(bsc_pair, p, 0.25))
    assert eps_capacity(bsc_pair, eps=0.25).capacity == pytest.approx(best, abs=1e-6)


def brute_minimal_sets(weights, eps):
    """Reference: every drop mask in turn, its mass summed in index order."""
    n, w, sets = len(weights), weights.tolist(), []
    for mask in range(2 ** n):
        drop = [j for j in range(n) if mask >> j & 1]
        keep = tuple(j for j in range(n) if not mask >> j & 1)
        mass = sum(w[j] for j in drop)
        if keep and mass <= eps + SUM_TOL and all(mass + w[j] > eps + SUM_TOL for j in keep):
            sets.append(keep)
    return sets


def test_minimal_sets_match_the_subset_loop():
    """Every bound level visited, the levels yield the subset loop's minimal sets sorted by
    (-least bound, set), for up to 12 atoms, with random bounds and with bounds tied on
    three levels.  Weights in tenths put partial sums such as 0.1 + 0.2 on eps's boundary,
    so do equal weights 1/k; a weight of 1e-300 is dropped by every minimal set.  Each
    level's union, its atoms of bound >= u, holds each of its sets."""
    rng = np.random.default_rng(11)
    for trial in range(300):
        k = int(rng.integers(1, 13))
        weights = rng.dirichlet(np.ones(k))
        if trial % 4 == 1:
            weights = rng.multinomial(10, np.full(k, 1.0 / k)) / 10.0
            weights = weights[weights > 0.0]
        elif trial % 4 == 2:
            weights = np.full(k, 1.0 / k)
        elif trial % 4 == 3:
            weights = np.insert(rng.dirichlet(np.ones(k)), int(rng.integers(0, k + 1)), 1e-300)
        for eps in (0.0, 0.3, float(rng.uniform(0.0, 0.99)),
                    min(float(sum(weights[:int(rng.integers(0, len(weights)))])), 0.99)):
            brute = brute_minimal_sets(weights, eps)
            for ubs in (rng.uniform(0.0, 1.0, len(weights)),
                        rng.integers(0, 3, len(weights)) / 2.0):
                expected = sorted(brute, key=lambda s: (-min(ubs[t] for t in s), s))
                got = []
                for u, union, sets in _levels(weights, ubs, eps, []):
                    sets = list(sets)
                    assert union == tuple(np.flatnonzero(ubs >= u).tolist())
                    assert all(set(s) <= set(union) for s in sets)
                    got += sets
                assert got == expected


def test_a_level_lists_its_sets_lazily(monkeypatch):
    """60 random atoms of weight 1/60 at eps 0.1: the level that keeps 55 atoms, all of them
    droppable, walks 3,081 steps to list its 54 sets.  With the cap at 1,000 steps its
    first set still comes, after 57 steps; listing them all raises."""
    rng = np.random.default_rng(1)
    mix = MixedChannel(tuple((1 / 60, random_dmc(rng, 3, 3)) for _ in range(60)))
    cost = CostSpec.free(3)
    ubs = []
    for w in mix.components:
        solve = constrained_capacity(w, cost)
        ubs.append(_dual_bound(w, solve.optimal_input.probs, cost, solve.multiplier))
    monkeypatch.setattr("mixcap.first_order.ENUM_CAP", 1000)
    walked = []
    levels = _levels(mix.weights, np.array(ubs), 0.1, walked)
    next(levels)  # its sets are never asked for, so it takes no step
    u, union, sets = next(levels)
    assert len(union) == 55 and len(next(sets)) == 54 and walked == [57]
    with pytest.raises(EnumerationCapError, match="take more than 1000 walk steps"):
        list(sets)


def _chain(w0, thetas) -> MixedChannel:
    """W0 followed by a BSC of each crossover, one cell of equal weight per crossover."""
    return MixedChannel(tuple((1.0 / len(thetas), Dmc(np.asarray(w0) @ [[1 - t, t], [t, 1 - t]]))
                              for t in thetas))


def _capacity_quantile(mix, eps, caps):
    """max{c_k : w{c < c_k} <= eps}, with masses compared within SUM_TOL."""
    caps = np.asarray(caps)
    return max(c for c in caps if mix.weights[caps < c].sum() <= eps + SUM_TOL)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), cells=st.integers(2, 30), eps=st.floats(0.0, 0.95),
       bsc_list=st.booleans())
def test_general_search_matches_the_capacity_quantile(seed, cells, eps, bsc_list):
    """On capacity-ordered families, a degraded chain W0 BSC(theta) of equal-weight cells
    or a BSC list with random weights and repeated crossovers, the general search agrees
    with the paper's formula: its value is within DEFAULT_TOL of the eps-quantile of the
    component capacities (closed forms for BSCs, certified solves for chains), its bracket
    contains that quantile, and the exact second-order value is at least the lower bound's.
    On BSC lists the exact value is the closed form sqrt(V) Phi^-1((eps - below) / at) of
    the capacity split at the quantile, V the dispersion of its crossover, unless eps is
    subnormal: then eps itself is known to a few bits, and so is the Gaussian quantile."""
    rng = np.random.default_rng(seed)
    if bsc_list:
        ps = rng.choice([0.02, 0.05, 0.11, 0.2, 0.3, 0.45], size=cells)
        mix = MixedChannel(tuple((float(w), bsc(p)) for w, p in
                                 zip(rng.dirichlet(np.ones(cells)), ps)))
        lo = hi = _capacity_quantile(mix, eps, [bsc_capacity(p) for p in ps])
    else:
        w0 = rng.dirichlet(np.ones(2), size=3) * 0.9 + 0.05
        mix = _chain(w0, rng.uniform(0.0, 0.5) * np.arange(1, cells + 1) / cells)
        solves = [constrained_capacity(w) for w in mix.components]
        lo = _capacity_quantile(mix, eps, [s.capacity for s in solves])
        hi = _capacity_quantile(mix, eps, [_dual_bound(w, s.optimal_input.probs,
                                                       CostSpec.free(3), s.multiplier)
                                           for w, s in zip(mix.components, solves)])
    res = eps_capacity(mix, eps=eps)
    assert abs(res.capacity - lo) <= DEFAULT_TOL
    assert res.capacity - 1e-12 <= hi and lo <= res.upper_bound + 1e-12
    checked = eps_capacity_well_ordered(mix, eps=eps)
    assert checked.capacity == res.capacity
    assert checked.argmax_input.probs.tolist() == res.argmax_input.probs.tolist()
    exact = second_order_well_ordered(mix, eps=eps)
    assert exact.method == "exact-formula" and exact.rate == res.capacity
    assert second_order_lb(mix, eps=eps).s_value <= exact.s_value + 1e-9
    if bsc_list and not 0.0 < eps < sys.float_info.min:  # a subnormal eps has too few bits
        caps = np.array([bsc_capacity(p) for p in ps])
        below, at = (mix.weights[caps < lo].sum(), mix.weights[caps == lo].sum())
        star = ps[caps == lo][0]
        share = (eps - below) / at
        closed = (math.sqrt(star * (1 - star)) * abs(math.log((1 - star) / star))
                  * NormalDist().inv_cdf(share) if share > 0.0 else -math.inf)
        assert exact.s_value == pytest.approx(closed, rel=1e-9, abs=1e-9)


def test_two_hundred_cell_chain_is_bracketed_in_seconds():
    """The degraded chain W0 BSC(theta), theta uniform on [0, 0.3], at eps 0.1 in 200
    cells at their worse ends: eps drops the 20 worst, so the general bracket contains
    C(W0 BSC(0.27)), within 2 s and with no atom-set refusal."""
    mix = _chain([[0.9, 0.1], [0.3, 0.7], [0.6, 0.4]], 0.3 * np.arange(1, 201) / 200)
    start = time.perf_counter()
    res = eps_capacity(mix, eps=0.1)
    assert time.perf_counter() - start < 2.0
    cell = constrained_capacity(mix.components[179])
    top = _dual_bound(mix.components[179], cell.optimal_input.probs, CostSpec.free(3),
                      cell.multiplier)
    assert res.capacity - 1e-12 <= top and cell.capacity <= res.upper_bound
    assert res.upper_bound - res.capacity <= DEFAULT_TOL


def test_eps_capacity_well_ordered_pair(bsc_pair):
    res = eps_capacity_well_ordered(bsc_pair, eps=0.25)
    assert res.capacity == pytest.approx(bsc_capacity(0.2), abs=1e-9)
    assert res.achieving_component == 1  # the p = 0.2 atom
    single = eps_capacity_well_ordered(MixedChannel.singleton(bsc(0.11)), eps=0.6)
    assert single.capacity == pytest.approx(bsc_capacity(0.11), abs=1e-9)
    assert single.achieving_component == 0


def test_eps_capacity_well_ordered_three_atoms():
    mix = MixedChannel(((1 / 3, bsc(0.05)), (1 / 3, bsc(0.11)), (1 / 3, bsc(0.2))))
    res = eps_capacity_well_ordered(mix, eps=0.4)
    assert res.capacity == pytest.approx(bsc_capacity(0.11), abs=1e-9)


def test_agreement_full_vs_well_ordered(bsc_pair):
    for eps in (0.0, 0.25, 0.5, 0.75):
        full = eps_capacity(bsc_pair, eps=eps).capacity
        fast = eps_capacity_well_ordered(bsc_pair, eps=eps).capacity
        assert abs(full - fast) <= 1e-4


def test_eps_capacity_monotone_in_eps_and_gamma():
    rng = np.random.default_rng(29)
    mix = random_mixture(rng, max_atoms=3)
    caps = [eps_capacity(mix, eps=e).capacity for e in (0.0, 0.3, 0.6, 0.9)]
    assert all(a <= b + 1e-9 for a, b in zip(caps, caps[1:]))
    cost_base = np.array([1.0, 0.0])
    caps_g = [eps_capacity(mix, CostSpec(cost_base, g), eps=0.3).capacity
              for g in (0.1, 0.3, 0.6, 1.0)]
    assert all(a <= b + 1e-9 for a, b in zip(caps_g, caps_g[1:]))


def test_unconstrained_consistency(bsc_pair):
    costs = np.array([2.0, 1.0])
    slercapped = eps_capacity(bsc_pair, CostSpec(costs, gamma=2.0), eps=0.25)
    free = eps_capacity(bsc_pair, CostSpec(costs, gamma=None), eps=0.25)
    assert slercapped.capacity == free.capacity  # exactly equal paths


def test_quantile_reports_both_masses(bsc_pair, uniform2):
    res = eps_capacity(bsc_pair, eps=0.5)
    assert res.mass_below == pytest.approx(0.5, abs=1e-12)
    assert res.mass_at_or_below == pytest.approx(1.0, abs=1e-12)


def test_rate_spectrum_masses_match_brute_sums():
    rng = np.random.default_rng(21)
    for _ in range(200):
        k = int(rng.integers(1, 8))
        values = rng.integers(0, 4, size=k) / 8.0  # few distinct values: ties
        weights = rng.dirichlet(np.ones(k))
        distinct, below = rate_spectrum(values, weights)
        assert distinct.tolist() == np.unique(values).tolist()
        for v, m in zip(distinct, below):
            assert m == pytest.approx(weights[values < v].sum(), abs=1e-12)
        for eps in (0.0, 0.2, 0.5, 0.9):
            feasible = [v for v in distinct if weights[values < v].sum() <= eps + 1e-12]
            q, q_below, q_at = _quantile(values, weights, eps)
            assert q == pytest.approx(max(feasible), abs=1e-12)
            assert q_below == pytest.approx(weights[values < q].sum(), abs=1e-12)
            assert q_at == pytest.approx(weights[values <= q].sum(), abs=1e-12)
        # the mass at or below the largest value is exactly 1
        assert _quantile(values, weights, below[-1]) == (distinct[-1], below[-1], 1.0)


def _degraded_family(rng, num_inputs: int) -> MixedChannel:
    """A random channel followed by symmetric noise of increasing strength.

    Each component is a degraded version of the previous one, so the family
    is ordered by capacity (and less noisy), and the exact formula applies.
    """
    base = rng.dirichlet(np.ones(3), size=num_inputs) * 0.9 + 0.1 / 3
    deltas = np.sort(rng.uniform(0.0, 0.6, size=3))
    weights = rng.dirichlet(np.ones(3))
    atoms = []
    for w_k, d in zip(weights, deltas):
        noise = (1.0 - d) * np.eye(3) + d / 3.0
        atoms.append((float(w_k), Dmc(base @ noise)))
    return MixedChannel(tuple(atoms))


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_inputs=st.sampled_from([2, 3]),
       eps=st.floats(0.0, 0.95))
def test_lower_bound_never_exceeds_exact_formula(seed, num_inputs, eps):
    """On capacity-ordered families, search value <= exact formula + stated tolerance.

    The search only evaluates I(P, W_k) at concrete inputs, so it never
    exceeds the true quantile of capacities.  The formula reads solver
    capacities, which sit below the true ones by at most the optimality gap
    DEFAULT_TOL; both sides are rounded to VALUE_DECIMALS decimals, which
    moves each by at most half of 1e-12.
    """
    mix = _degraded_family(np.random.default_rng(seed), num_inputs)
    lower = eps_capacity(mix, eps=eps).capacity
    exact = eps_capacity_well_ordered(mix, eps=eps).capacity
    assert lower <= exact + DEFAULT_TOL + 10.0 ** -VALUE_DECIMALS


def _grid_rate_quantiles(mix, eps, cost=None, denom=64):
    """Rate quantile at every budget-feasible point of the 1/denom simplex grid, by plain numpy.

    I(P, W) = H(PW) - sum_x P(x) H(W(.|x)), and the quantile is the largest
    atom information whose strictly-below mass is at most eps: an independent
    reference for the compound-channel reduction.
    """
    k = mix.num_inputs
    pts = np.array([c for c in itertools.product(range(denom + 1), repeat=k - 1)
                    if sum(c) <= denom])
    pts = np.column_stack([pts, denom - pts.sum(axis=1)]) / denom
    if cost is not None:
        pts = pts[pts @ cost.costs <= cost.gamma]
    infos = []
    for w in mix.components:
        q = pts @ w.rows
        with np.errstate(divide="ignore", invalid="ignore"):
            h_out = -np.where(q > 0, q * np.log(q), 0.0).sum(axis=1)
            h_rows = -np.where(w.rows > 0, w.rows * np.log(w.rows), 0.0).sum(axis=1)
        infos.append(h_out - pts @ h_rows)
    infos = np.array(infos).T  # grid points x atoms
    below = (mix.weights * (infos[:, None, :] < infos[:, :, None])).sum(axis=2)
    return np.where(below <= eps, infos, -np.inf).max(axis=1)


def _ternary_capacity(w, cost, *others):
    """max over the budget's segment of a of the least I((a, 1 - a), .) over W and ``others``,
    a concave function of a, by 200 ternary-search steps."""
    lo, hi = 0.0, 1.0
    if cost is not None and cost.costs[0] != cost.costs[1]:
        edge = (cost.gamma - cost.costs[1]) / (cost.costs[0] - cost.costs[1])
        lo, hi = (lo, min(hi, edge)) if cost.costs[0] > cost.costs[1] else (max(lo, edge), hi)

    def info(a):
        return min(mutual_information(InputDist([a, 1.0 - a]), v) for v in (w, *others))

    for _ in range(200):
        a, b = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        lo, hi = (a, hi) if info(a) < info(b) else (lo, b)
    return info(0.5 * (lo + hi))


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_inputs=st.sampled_from([2, 3, 4]),
       num_atoms=st.sampled_from([3, 8, 12]), eps=st.floats(0.0, 0.9),
       budget=st.sampled_from([None, "slack", "binding"]))
@example(seed=3548, num_inputs=4, num_atoms=8, eps=0.625, budget="binding")
def test_eps_capacity_bracket_contains_the_grid_sup(seed, num_inputs, num_atoms, eps, budget):
    """value <= upper_bound, value >= the best feasible 1/64-grid input, value >= every
    component optimum, and each component solve is certified.

    The slack budget (gamma at the dearest letter) admits every input; the
    binding one (gamma halfway from the cheapest to the mean letter cost) cuts
    the grid.  A component optimum is beaten only up to the solver tolerance,
    because a set settled at an optimal-polytope vertex reads that vertex, which
    is within DEFAULT_TOL of the capacity.  Each solve's dual bound is within
    DEFAULT_TOL of its value; on two inputs the value matches a ternary search
    of the feasible segment within 1e-12.
    """
    rng = np.random.default_rng(seed)
    mix = MixedChannel(tuple((float(w), random_dmc(rng, num_inputs, 3))
                             for w in rng.dirichlet(np.ones(num_atoms))))
    costs = rng.uniform(0.0, 1.0, num_inputs)
    gamma = {"slack": costs.max(), "binding": 0.5 * (costs.min() + costs.mean())}.get(budget)
    cost = None if budget is None else CostSpec(costs, float(gamma))
    res = eps_capacity(mix, cost, eps=eps)
    assert res.capacity <= res.upper_bound <= res.capacity + 2e-9
    assert res.capacity >= _grid_rate_quantiles(mix, eps, cost).max() - 1e-12
    for comp in mix.components:
        solve = constrained_capacity(comp, cost)
        p = solve.optimal_input
        assert res.capacity >= rate_quantile(mix, p, eps) - DEFAULT_TOL
        bound = _dual_bound(comp, p.probs, cost or CostSpec.free(num_inputs), solve.multiplier)
        assert bound - solve.capacity <= DEFAULT_TOL
        if num_inputs == 2:
            assert solve.capacity == pytest.approx(_ternary_capacity(comp, cost), abs=1e-12)



@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), reach=st.booleans(), eps=st.floats(0.0, 0.9))
def test_pinned_budget_gives_the_numbers_of_the_cheapest_letters(seed, reach, eps):
    """A budget at the cheapest cost gives the numbers of the mixture restricted to the
    cheapest letters, without a budget; its inputs are the restricted ones padded with zeros.

    With ``reach`` a dearer letter reaches an output no cheapest letter reaches, so
    every component's multiplier is +inf; without it each row has full support and the
    multiplier is finite.  Values agree within the solver tolerance: the capacity solves
    run on the same face, while the eps-capacity searches take their own cutting planes.
    """
    rng = np.random.default_rng(seed)
    x, y = int(rng.integers(3, 5)), int(rng.integers(3, 5))
    costs = rng.integers(1, 4, x).astype(float)
    cheap = np.sort(rng.choice(x, int(rng.integers(2, x)), replace=False))
    costs[cheap] = 0.5
    atoms = []
    for weight in rng.dirichlet(np.ones(int(rng.integers(1, 4)))):
        rows = rng.dirichlet(np.ones(y), size=x)
        if reach:
            rows[cheap, -1] = 0.0
            rows[:, -1] += np.where(costs > 0.5, 0.1, 0.0)
        atoms.append((float(weight), Dmc(rows / rows.sum(axis=1, keepdims=True))))
    mix, cost = MixedChannel(tuple(atoms)), CostSpec(costs, 0.5)
    sub = MixedChannel(tuple((w, Dmc(comp.rows[cheap])) for w, comp in atoms))

    def padded(p_sub, p, atol):
        assert np.allclose(p.probs, np.bincount(cheap, p_sub.probs, x), rtol=0.0, atol=atol)

    for comp, comp_sub in zip(mix.components, sub.components):
        res, res_sub = constrained_capacity(comp, cost), constrained_capacity(comp_sub)
        assert res.capacity == pytest.approx(res_sub.capacity, abs=1e-12)
        assert math.isinf(res.multiplier) == reach
        assert math.isfinite(res.kt_slack) and res.kt_slack <= DEFAULT_KT_TOL
        padded(res_sub.optimal_input, res.optimal_input, 1e-12)
    first, first_sub = eps_capacity(mix, cost, eps), eps_capacity(sub, None, eps)
    assert first.capacity == pytest.approx(first_sub.capacity, abs=1e-12)
    assert first.upper_bound == pytest.approx(first_sub.upper_bound, abs=DEFAULT_TOL)
    padded(first_sub.argmax_input, first.argmax_input, 1e-7)
    second, second_sub = second_order_lb(mix, cost, eps=eps), second_order_lb(sub, None, eps=eps)
    assert second.s_value == pytest.approx(second_sub.s_value, rel=1e-6, abs=1e-9)
    padded(second_sub.input, second.input, 1e-7)
    report, report_sub = check_well_ordered(mix, cost), check_well_ordered(sub)
    assert report.is_well_ordered == report_sub.is_well_ordered
    assert np.array_equal(report.capacity_spectrum, report_sub.capacity_spectrum)
    for reps, reps_sub in zip(report.rep_sets, report_sub.rep_sets):
        assert len(reps.representatives) == len(reps_sub.representatives)
        for p, p_sub in zip(reps.representatives, reps_sub.representatives):
            padded(p_sub, p, 1e-12)

# the benchmark's 3-input search spec "s3b" at workload seed 0: the optimum sits on
# the kink I(P, W_0) = I(P, W_2), where the grid search stalled
S3B_ATOMS = (
    (0.3518285926685833, [[0.17363986520488783, 0.44001548311828315, 0.38634465167682897],
                          [0.7998915220570353, 0.09388232709658689, 0.10622615084637776],
                          [0.6150916292926899, 0.17582309913257183, 0.20908527157473822]]),
    (0.23729534814754205, [[0.20674306858105904, 0.5554312930379534, 0.23782563838098758],
                           [0.4966687674360329, 0.11398879458219861, 0.3893424379817685],
                           [0.10066788646744872, 0.3358542058417757, 0.5634779076907755]]),
    (0.4108760591838747, [[0.6090023860856602, 0.07969335594930323, 0.3113042579650366],
                          [0.3056504897827707, 0.04969960455590126, 0.644649905661328],
                          [0.1584285223859281, 0.6526351274485578, 0.18893635016551413]]),
)
S3B_EPS = 0.2927
S3B_GRID_SEARCH_VALUE = 0.183114169615  # printed by the simplex-grid search it replaces


def test_kink_optimum_beats_the_grid_search():
    """On the s3b kink the certified value clears the old search by more than 1e-5,
    and the second-order input has no atom in the band snap_tol < |I - rate| <= tie_tol."""
    mix = MixedChannel(tuple((w, Dmc(rows)) for w, rows in S3B_ATOMS))
    res = eps_capacity(mix, eps=S3B_EPS)
    assert res.capacity > S3B_GRID_SEARCH_VALUE + 1e-5
    assert res.capacity <= res.upper_bound <= res.capacity + 2e-9
    second = second_order_lb(mix, eps=S3B_EPS)
    assert second.rate == res.capacity and math.isfinite(second.s_value)
    infos = [mutual_information(second.input, comp) for comp in mix.components]
    assert not any(1e-12 < abs(i - second.rate) <= DEFAULT_TIE_TOL for i in infos)
    assert sum(abs(i - second.rate) <= 1e-12 for i in infos) == 2  # atoms 0 and 2


# eps-capacities the simplex-grid search printed for every golden spec
GRID_SEARCH_VALUES = {
    ("bsc1.json", 0.3): 0.346631843641,
    ("bsc3.json", 0.35): 0.192744757022,
    ("cost2.json", 0.3): 0.110413075214,
    ("cost3.json", 0.3): 0.19812160359,
    ("mix2x2.json", 0.3): 0.238624668135,
    ("multi5.json", 0.3): 0.120615338528,
    ("zbsc.json", 0.3): 0.344764812789,
}


@pytest.mark.parametrize("spec, eps", sorted(GRID_SEARCH_VALUES), ids=lambda v: str(v))
def test_certified_value_never_loses_to_the_grid_search(spec, eps):
    """The old value lies below the certified upper bound, and the new one is no worse
    than the old beyond the solver tolerance; the bracket is 2e-9 wide (1e-7 on multi5,
    whose oracle solves stop at their iteration cap)."""
    mixed, cost = load_spec(os.path.join(GOLDEN, spec))
    res = eps_capacity(mixed, cost, eps)
    old = GRID_SEARCH_VALUES[spec, eps]
    assert old <= res.upper_bound
    assert res.capacity >= old - DEFAULT_TOL
    assert res.capacity <= res.upper_bound <= res.capacity + (
        1e-7 if spec == "multi5.json" else 2e-9)


def test_game_matches_a_simplex_scan():
    """The game's lam beats every point of a 1/60 simplex grid; its mu attains the value."""
    rng = np.random.default_rng(11)
    for m in (2, 3):
        g = rng.uniform(0.0, 1.0, size=(4, m))
        lam, mu = _game(g)
        assert lam.min() >= 0.0 and lam.sum() == pytest.approx(1.0, abs=1e-12)
        pts = [np.array(c) / 60 for c in itertools.product(range(61), repeat=m) if sum(c) == 60]
        assert (g @ lam).max() <= min((g @ p).max() for p in pts) + 1e-12
        assert (mu @ g).min() == pytest.approx((g @ lam).max(), abs=1e-12)


def _enumerated_game_value(g):
    """min over the simplex of max_i (g lam)_i: the least t over the basic solutions of
    g lam + s = t 1, sum lam = 1, (lam, s, t) >= 0, with g shifted so that t > 0."""
    n, m = g.shape
    shift = 1.0 - g.min()
    a = np.block([[g + shift, np.eye(n), -np.ones((n, 1))], [np.ones(m), np.zeros(n + 1)]])
    return min(coef[-1] for _, coef in _basic_solutions(a, np.eye(n + 1)[n], LP_TOL)) - shift


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), m=st.integers(1, 6),
       kind=st.sampled_from(["uniform", "duplicate rows", "duplicate columns", "ties"]))
def test_game_value_matches_the_basis_enumeration(seed, n, m, kind):
    """On random n x m games the simplex's lam and mu both attain the value that listing
    every basic solution finds, within 1e-12; duplicate rows and columns and entries
    drawn from three levels make the optimum degenerate."""
    rng = np.random.default_rng(seed)
    g = rng.uniform(0.0, 1.0, size=(n, m))
    if kind == "duplicate rows":
        g = g[rng.integers(0, n, n)]
    elif kind == "duplicate columns":
        g = g[:, rng.integers(0, m, m)]
    elif kind == "ties":
        g = rng.integers(0, 3, size=(n, m)) / 2.0
    lam, mu = _game(g)
    assert lam.min() >= 0.0 and mu.min() >= 0.0
    assert lam.sum() == pytest.approx(1.0, abs=1e-12) and mu.sum() == pytest.approx(1.0, abs=1e-12)
    value = _enumerated_game_value(g)
    assert abs((g @ lam).max() - value) <= 1e-12
    assert abs((mu @ g).min() - value) <= 1e-12


def test_fourteen_atoms_get_a_certified_bracket():
    """A random 14-atom, 3-input mixture at eps 0.1 gets a bracket within DEFAULT_TOL.
    Listing its master's basic solutions would take 2,496,144 candidate bases, past
    ENUM_CAP; one simplex solve per round has no such cap."""
    rng = np.random.default_rng(2)
    mix = MixedChannel(tuple((float(w), random_dmc(rng, 3, 3))
                             for w in rng.dirichlet(np.ones(14))))
    res = eps_capacity(mix, eps=0.1)
    assert res.capacity <= res.upper_bound <= res.capacity + DEFAULT_TOL


def test_polish_flattens_a_kink_with_more_cuts_than_atoms():
    """Three cut inputs near the s3b kink, mixed 1e-8 off it: the polished mix puts
    atoms 0 and 2 within 1e-13 of each other."""
    mix = MixedChannel(tuple((w, Dmc(rows)) for w, rows in S3B_ATOMS))
    kink = eps_capacity(mix, eps=S3B_EPS).argmax_input.probs
    stack = mix.rows[[0, 2]], mix.log_rows[[0, 2]]
    dirs = np.array([[1.0, -0.5, -0.5], [-0.2, 1.0, -0.8], [0.0, -1.0, 1.0]])
    cuts = kink + 1e-6 * dirs
    start = informations(cuts.mean(axis=0), *stack)
    assert 1e-12 < abs(start[0] - start[1]) < 1e-7
    p = _polish(*stack, cuts, np.full(3, 1.0 / 3.0))
    assert abs(np.subtract(*informations(p, *stack))) <= 1e-13


def test_a_non_symmetric_near_tie_is_bracketed_by_cutting_planes(caplog):
    """W_b is W_a = [[.9, .1], [.3, .7]] with its rows swapped and row 0 moved by 1e-8, so
    C_a - C_b is about 6.2e-9: within the ordering check's 1e-7 but not within DEFAULT_TOL.
    At eps 0.3 neither atom can be dropped, and the vertex of W_b leaves W_a below
    u - DEFAULT_TOL, so the one set goes to cutting planes.  Its value matches a ternary
    search of max_a min(I(a, W_a), I(a, W_b)) within 1e-9."""
    delta = 1e-8
    w_a, w_b = Dmc([[0.9, 0.1], [0.3, 0.7]]), Dmc([[0.3 + delta, 0.7 - delta], [0.9, 0.1]])
    gap = constrained_capacity(w_a).capacity - constrained_capacity(w_b).capacity
    assert DEFAULT_TOL < gap < 1e-7
    caplog.set_level("DEBUG", logger="mixcap.first_order")
    res = eps_capacity(MixedChannel(((0.5, w_a), (0.5, w_b))), eps=0.3)
    assert any(r.getMessage().startswith("eps-capacity set (0, 1) by cutting planes, ")
               for r in caplog.records)
    assert res.capacity == pytest.approx(_ternary_capacity(w_a, None, w_b), abs=1e-9)
    assert res.capacity <= res.upper_bound <= res.capacity + 2e-9


def test_debug_log_marks_a_set_left_open_at_the_round_cap(monkeypatch, caplog):
    """With MAX_ROUNDS at 1, binding3.json's one set stops after one oracle solve with its
    bracket open: its line says so, and the summary counts that solve and that set, then
    the five walk steps that list the set, against the walk's cap.  The bracket still holds
    the value found without the cap, only wider."""
    mixed, cost = load_spec(os.path.join(GOLDEN, "binding3.json"))
    caplog.set_level("DEBUG", logger="mixcap.first_order")
    full = eps_capacity(mixed, cost, eps=0.3)
    walk = "; at most 5 walk steps in one level (cap 1000000)"
    assert caplog.records[-1].getMessage().endswith(" oracle solves, 0 sets left open at the "
                                                    "round cap" + walk)
    caplog.clear()
    monkeypatch.setattr("mixcap.first_order.MAX_ROUNDS", 1)
    res = eps_capacity(mixed, cost, eps=0.3)
    lines = [r.getMessage() for r in caplog.records]
    assert lines[0].startswith("eps-capacity set (0, 1) by cutting planes, 2 rounds, "
                               "1 oracle solves, left open at the round cap: [")
    assert lines[-1].endswith("; 1 oracle solves, 1 sets left open at the round cap" + walk)
    assert res.capacity <= full.capacity + 2e-9
    assert full.upper_bound + DEFAULT_TOL < res.upper_bound
