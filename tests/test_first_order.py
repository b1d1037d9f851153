import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcap import (
    CostSpec,
    Dmc,
    InputDist,
    MixedChannel,
    eps_capacity,
    eps_capacity_well_ordered,
    mutual_information,
    rate_quantile,
)
from mixcap.first_order import VALUE_DECIMALS, build_quantile_curve
from mixcap.optimizer import DEFAULT_TOL
from conftest import bsc, bsc_capacity, random_mixture


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


def test_quantile_curve_masses_match_brute_sums():
    rng = np.random.default_rng(21)
    for _ in range(200):
        k = int(rng.integers(1, 8))
        values = rng.integers(0, 4, size=k) / 8.0  # few distinct values: ties
        weights = rng.dirichlet(np.ones(k))
        curve = build_quantile_curve(values, weights, "test")
        distinct = np.unique(values)
        probes = np.concatenate([distinct, distinct + 0.0625, [values.min() - 1.0]])
        for r in probes:
            below, at = curve.masses(float(r))
            assert below == pytest.approx(weights[values < r].sum(), abs=1e-12)
            assert at == pytest.approx(weights[values <= r].sum(), abs=1e-12)
        for eps in (0.0, 0.2, 0.5, 0.9):
            feasible = [v for v in distinct if weights[values < v].sum() <= eps + 1e-12]
            assert curve.quantile(eps) == pytest.approx(max(feasible), abs=1e-12)


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
