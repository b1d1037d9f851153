import glob
import itertools
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixcap.optimizer
from mixcap import (
    CostSpec,
    Dmc,
    EnumerationCapError,
    InputDist,
    capacity_achieving_set,
    channel_dispersion,
    constrained_capacity,
    kt_verify,
    mutual_information,
    output_distribution,
)
from mixcap.cli import load_spec
from mixcap.optimizer import DEFAULT_TOL, _ba_tilted, _dual_bound, _tilt
from conftest import bsc, bsc_capacity, random_dmc

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


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
    w, p = bsc(0.11), res.optimal_input.probs
    assert _dual_bound(w, p, CostSpec.free(2), res.multiplier) - res.capacity <= 1e-15
    passed, slack = kt_verify(w, res.optimal_input, None, res.multiplier)
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
    assert sorted(tuple(p.probs) for p in reps.representatives) == [(0.0, 1.0), (1.0, 0.0)]
    for p in reps.representatives:
        assert np.allclose(output_distribution(p, w), reps.cap_output, atol=1e-9)


def test_capacity_achieving_set_two_vertex_segment():
    # permuted rows with rows 0 + 1 = rows 2 + 3: the optimal inputs form a segment
    w = Dmc([[0.4, 0.1, 0.25, 0.25], [0.1, 0.4, 0.25, 0.25],
             [0.25, 0.25, 0.4, 0.1], [0.25, 0.25, 0.1, 0.4]])
    reps = capacity_achieving_set(w)
    vertices = sorted(tuple(np.round(p.probs, 9)) for p in reps.representatives)
    assert vertices == [(0.0, 0.0, 0.5, 0.5), (0.5, 0.5, 0.0, 0.0)]


def test_capacity_achieving_set_drops_a_letter_left_with_vanishing_mass():
    # alternating maximization alone leaves ~1.6e-7 on letter 1 of this component
    # although its divergence is 6.1e-3 below capacity; the face step returns the
    # optimal input (1/2, 0, 1/2) itself
    mixed, cost = load_spec(os.path.join(GOLDEN, "cost3.json"))
    w = mixed.components[1]
    reps = capacity_achieving_set(w, cost)
    assert np.array_equal(reps.solve.optimal_input.probs, [0.5, 0.0, 0.5])
    (p,) = reps.representatives
    assert p.probs[1] == 0.0
    assert np.allclose(p.probs, [0.5, 0.0, 0.5], atol=1e-12)


def test_capacity_achieving_set_enumeration_cap(monkeypatch):
    monkeypatch.setattr(mixcap.optimizer, "ENUM_CAP", 1)
    with pytest.raises(EnumerationCapError):
        capacity_achieving_set(Dmc([[0.8, 0.2], [0.8, 0.2]]))


@pytest.mark.parametrize("spec", sorted(glob.glob(os.path.join(GOLDEN, "*.json"))),
                         ids=os.path.basename)
def test_kt_slack_on_golden_specs(spec):
    mixed, cost = load_spec(spec)
    for comp in mixed.components:
        assert constrained_capacity(comp, cost).kt_slack <= 1e-6


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


def _simplex_grid(k: int, denom: int) -> np.ndarray:
    """Every input with denominator ``denom`` on k letters, one per row (stars and bars)."""
    bars = np.array(list(itertools.combinations(range(denom + k - 1), k - 1)))
    ends = np.full((len(bars), 1), denom + k - 1)
    return (np.diff(np.hstack([-np.ones_like(ends), bars, ends]), axis=1) - 1) / denom


def _grid_informations(rows: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """I(P, W) = H(PW) - sum_x P(x) H(W(.|x)) at every row P of pts, for W without zeros."""
    q = pts @ rows
    return -(q * np.log(q)).sum(axis=1) + pts @ (rows * np.log(rows)).sum(axis=1)


def _certified_binding_solve(w: Dmc, cost: CostSpec):
    """Solve, then check the budget, the dual certificate and the Kuhn-Tucker slack."""
    res = constrained_capacity(w, cost)
    p = res.optimal_input.probs
    assert p @ cost.costs <= cost.gamma + 1e-12
    assert res.capacity <= _dual_bound(w, p, cost, res.multiplier) <= res.capacity + DEFAULT_TOL
    assert res.kt_slack <= 1e-6
    return res


def test_binding_budget_solves_are_certified_and_beat_the_feasible_grid():
    """gamma strictly between the cheapest cost and the free optimum's expected cost."""
    rng = np.random.default_rng(5)
    for k, denom in ((3, 60), (4, 24)) * 4:
        w = random_dmc(rng, k, 3)
        costs = rng.permutation(np.arange(k, dtype=float))
        free_cost = constrained_capacity(w).optimal_input.probs @ costs
        cost = CostSpec(costs, float(rng.uniform(0.1, 0.9) * free_cost))
        res = _certified_binding_solve(w, cost)
        pts = _simplex_grid(k, denom)
        pts = pts[pts @ costs <= cost.gamma]
        assert res.capacity >= _grid_informations(w.rows, pts).max() - 1e-12


def test_binding_budget_that_stalled_the_multiplier_bisection():
    """A bisection on the multiplier, one solve from uniform per step, raised
    ConvergenceError here; 0.0745257 is this channel's capacity without the budget."""
    w = Dmc([[0.42621226943489027, 0.5737877305651098],
             [0.4929155934676378, 0.5070844065323622],
             [0.1416556587862121, 0.8583443412137879]])
    cost = CostSpec([0.0, 1.0, 2.0], 0.7735827146189712)
    res = _certified_binding_solve(w, cost)
    assert res.capacity == pytest.approx(0.0482350975, abs=1e-9)
    pts = _simplex_grid(3, 400)
    assert res.capacity >= _grid_informations(w.rows, pts[pts @ cost.costs <= cost.gamma]).max()


@pytest.mark.parametrize("spec", ["neardup4.json", "slowletter3.json", "lowbudget3.json"])
def test_near_degenerate_faces_solve_within_a_thousand_steps(spec):
    """Each spec has a letter near the Kuhn-Tucker level, which alternating maximization
    starves only by a factor e^-gap per iteration: a near-duplicate row (gap ~1e-7), a
    letter 1.2e-5 below the level under a binding budget, and a budget 1e-9 above the
    cheapest cost, where S* depends on the multiplier.  Newton on the optimal face
    finishes each within 1000 alternating iterations and Newton steps,
    certified within 1e-9, and the polytope over S* has a vertex."""
    mixed, cost = load_spec(os.path.join(GOLDEN, spec))
    w = mixed.components[0]
    reps = capacity_achieving_set(w, cost)
    res = reps.solve
    assert res.iterations <= 1000
    assert _dual_bound(w, res.optimal_input.probs, cost, res.multiplier) - res.capacity <= 1e-9
    assert reps.representatives


def test_newton_stops_on_a_binding_face_with_a_large_multiplier():
    """Costs 0.7828 and 0.7755 make the multiplier 86.4, so the tilted divergences
    D_x - lam c(x) carry terms near 68 whose rounding alone spreads them by more
    than an absolute 1e-14: the spread is measured against max |lam c_x|, and the
    face stops within 4 Newton steps instead of running all 20."""
    w = Dmc([[0.21145746081572697, 0.7885425391842731],
             [0.9488282955342473, 0.05117170446575271]])
    cost = CostSpec([0.7828, 0.7755], 0.7771460257534711)
    p, value, lam, _, steps, path = _ba_tilted(w, cost)
    assert path == "Newton on the optimal face" and steps <= 4
    assert lam == pytest.approx(86.36, abs=0.01)
    assert _dual_bound(w, p, cost, lam) - value <= DEFAULT_TOL


def test_tilt_is_the_i_projection_onto_the_budget():
    """p e^(-lam c), normalized, spends the budget and is the feasible input closest to p
    in divergence, from any warm lam; a met budget leaves p alone, and a budget at the
    cheapest cost conditions p on the cheapest letters (lam = inf)."""
    rng = np.random.default_rng(4)
    costs = np.array([0.0, 0.0, 1.0, 2.5])
    p = rng.dirichlet(np.ones(4))
    q, lam = _tilt(p, costs, float(p @ costs))
    assert q is p and lam == 0.0
    gamma = 0.5 * float(p @ costs)
    q, lam = _tilt(p, costs, gamma)
    assert lam > 0.0 and abs(q @ costs - gamma) <= 1e-13
    assert np.allclose(np.log(q / p) + lam * costs, math.log(q[0] / p[0]), atol=1e-12)
    for warm in (0.1 * lam, 10.0 * lam, 1e3):
        q_warm, lam_warm = _tilt(p, costs, gamma, warm)
        assert np.allclose(q_warm, q, atol=1e-12) and lam_warm == pytest.approx(lam, rel=1e-9)
    feasible = rng.dirichlet(np.ones(4), size=300)
    feasible = feasible[feasible @ costs <= gamma]
    assert (np.sum(feasible * np.log(feasible / p), axis=1) >= q @ np.log(q / p) - 1e-12).all()
    q, lam = _tilt(p, costs, 0.0)
    assert lam == math.inf
    assert np.array_equal(q, np.array([p[0], p[1], 0.0, 0.0]) / (p[0] + p[1]))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), pinned=st.booleans())
def test_dual_bound_is_at_least_the_capacity_for_every_multiplier(seed, pinned):
    """Weak duality: the max Kuhn-Tucker score is >= the capacity at any feasible input and
    any lam in [0, +inf], on channels with zero entries, integer costs, and a budget at the
    cheapest cost or above it.  At lam = +inf a letter below the budget scores +inf, one at
    it D_x and one above it -inf, so a pinned budget bounds by the cheapest letters alone."""
    rng = np.random.default_rng(seed)
    x, y = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    rows = rng.dirichlet(np.ones(y), size=x) * (rng.random((x, y)) < 0.6)
    rows[np.arange(x), rng.integers(0, y, x)] += 1e-3  # every row reaches some output
    w = Dmc(rows / rows.sum(axis=1, keepdims=True))
    costs = rng.integers(0, 4, x).astype(float)
    gamma = costs.min() if pinned else float(rng.uniform(costs.min(), costs.max() + 1.0))
    cost = CostSpec(costs, gamma)
    res = constrained_capacity(w, cost)
    assert math.isfinite(res.kt_slack) and res.kt_slack <= mixcap.optimizer.DEFAULT_KT_TOL
    # a random feasible input: a random one pulled toward a random one on the cheapest letters
    cheap = rng.dirichlet(np.ones(x)) * (costs == costs.min())
    cheap, anywhere = cheap / cheap.sum(), rng.dirichlet(np.ones(x))
    excess = float(anywhere @ costs) - costs.min()
    t = 1.0 if excess <= 0.0 else min(1.0, (gamma - costs.min()) / excess)
    for p in (res.optimal_input.probs, t * anywhere + (1.0 - t) * cheap):
        for lam in (0.0, float(rng.exponential()), math.inf, res.multiplier):
            assert _dual_bound(w, p, cost, lam) >= res.capacity - 1e-12
