import math

import numpy as np
import pytest

from mixcap import (
    CostSpec,
    Dmc,
    InputDist,
    capacity_achieving_set,
    channel_dispersion,
    constrained_capacity,
    kt_verify,
    mutual_information,
    output_distribution,
)
from conftest import bsc, bsc_capacity, random_dmc


def grid_search_capacity(w: Dmc, cost: CostSpec | None = None, step: float = 1e-4):
    """Brute-force capacity oracle for |X| = 2."""
    best = -1.0
    for p0 in np.arange(0.0, 1.0 + step / 2, step):
        p = InputDist([p0, 1.0 - p0])
        if cost is not None and not cost.admits(p):
            continue
        best = max(best, mutual_information(p, w))
    return best


def test_bsc_capacity_oracle():
    res = constrained_capacity(bsc(0.11))
    assert res.capacity == pytest.approx(bsc_capacity(0.11), abs=1e-12)
    assert np.allclose(res.optimal_input.probs, [0.5, 0.5], atol=1e-9)
    passed, slack = kt_verify(bsc(0.11), res.optimal_input, None, res.multiplier)
    assert passed


def test_useless_channel_capacity_zero():
    res = constrained_capacity(bsc(0.5))
    assert res.capacity == pytest.approx(0.0, abs=1e-9)


def test_budget_pinned_at_cheapest_letter():
    w = bsc(0.11)
    cost = CostSpec([1.0, 0.0], gamma=0.0)
    res = constrained_capacity(w, cost)
    point = InputDist([0.0, 1.0])
    assert np.allclose(res.optimal_input.probs, point.probs)
    assert res.capacity == pytest.approx(mutual_information(point, w), abs=1e-12)


def test_active_budget_matches_grid_search():
    rng = np.random.default_rng(21)
    for _ in range(10):
        w = random_dmc(rng, 2, 2)
        cost = CostSpec([1.0, 0.0], gamma=float(rng.uniform(0.05, 0.6)))
        res = constrained_capacity(w, cost)
        oracle = grid_search_capacity(w, cost)
        assert res.capacity >= oracle - 1e-9
        assert abs(res.capacity - oracle) <= 1e-4
        assert cost.admits(res.optimal_input)
        passed, slack = kt_verify(w, res.optimal_input, cost, res.multiplier, tol=1e-5)
        assert passed, f"kt slack {slack}"


def test_unconstrained_matches_grid_search():
    rng = np.random.default_rng(33)
    for _ in range(10):
        w = random_dmc(rng, 2, 2)
        res = constrained_capacity(w)
        oracle = grid_search_capacity(w)
        assert abs(res.capacity - oracle) <= 1e-4
        assert res.capacity >= oracle - 1e-9


def test_capacity_nondecreasing_in_gamma():
    rng = np.random.default_rng(7)
    for _ in range(5):
        w = random_dmc(rng, 2, 2)
        costs = CostSpec([1.0, 0.0])
        prev = -1.0
        for gamma in np.linspace(0.0, 1.0, 9):
            val = constrained_capacity(w, CostSpec(costs.costs, float(gamma))).capacity
            assert val >= prev - 1e-10
            prev = val


def test_kt_verify_examples(uniform2):
    w = bsc(0.11)
    assert kt_verify(w, uniform2, None, 0.0)[0]
    skewed = InputDist([0.9, 0.1])
    assert not kt_verify(w, skewed, None, 0.0)[0]
    noiseless = Dmc([[1.0, 0.0], [0.0, 1.0]])
    passed, slack = kt_verify(noiseless, uniform2, None, 0.0)
    assert passed and abs(slack) <= 1e-12


def test_capacity_achieving_set_bsc_unique():
    reps = capacity_achieving_set(bsc(0.11))
    assert len(reps.representatives) == 1
    assert np.allclose(reps.representatives[0].probs, [0.5, 0.5], atol=1e-9)
    assert np.allclose(reps.cap_output, [0.5, 0.5], atol=1e-9)


def test_capacity_achieving_set_duplicated_rows():
    w = Dmc([[0.8, 0.2], [0.8, 0.2]])  # both inputs equivalent: flat optimal face
    reps = capacity_achieving_set(w)
    assert len(reps.representatives) > 3
    for p in reps.representatives:
        assert np.allclose(output_distribution(p, w), reps.cap_output, atol=1e-9)


def test_capacity_achieving_set_identity_uniform_only():
    reps = capacity_achieving_set(Dmc([[1.0, 0.0], [0.0, 1.0]]))
    assert len(reps.representatives) == 1
    assert np.allclose(reps.representatives[0].probs, [0.5, 0.5], atol=1e-9)


def test_representative_contract():
    rng = np.random.default_rng(9)
    for _ in range(8):
        w = random_dmc(rng, 2, 3)
        cost = CostSpec([1.0, 0.0], gamma=float(rng.uniform(0.2, 0.8)))
        base = constrained_capacity(w, cost)
        reps = capacity_achieving_set(w, cost)
        tv_bound = 10.0 * math.sqrt(reps.opt_tolerance)
        for p in reps.representatives:
            assert cost.admits(p)
            assert mutual_information(p, w) >= base.capacity - reps.opt_tolerance
            out = output_distribution(p, w)
            assert 0.5 * np.abs(out - reps.cap_output).sum() <= tv_bound


def test_three_letter_channel_with_cost():
    w = Dmc([[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9]])
    cost = CostSpec([2.0, 1.0, 0.0], gamma=0.8)
    res = constrained_capacity(w, cost)
    assert cost.expected_cost(res.optimal_input) <= 0.8 + 1e-9
    passed, slack = kt_verify(w, res.optimal_input, cost, res.multiplier, tol=1e-5)
    assert passed, f"kt slack {slack}"
    # dual certificate: no feasible input beats the returned capacity
    rng = np.random.default_rng(2)
    for _ in range(300):
        p = InputDist(rng.dirichlet(np.ones(3)))
        if cost.admits(p):
            assert mutual_information(p, w) <= res.capacity + 1e-7
