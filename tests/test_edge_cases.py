"""Edge branches: step atoms in mixtures, ties, larger alphabets, MC fallback."""

import json
import math

import numpy as np
import pytest

from mixcap import (
    CodeParams,
    Dmc,
    InputDist,
    MixedChannel,
    SlackParams,
    channel_dispersion,
    eps_capacity,
    eps_capacity_well_ordered,
    feinstein_bound,
    gaussian_inv,
    mutual_information,
    output_distribution,
    rate_quantile,
    second_order_lb,
    second_order_well_ordered,
    solve_s,
)
from mixcap.cli import load_spec, main
from conftest import bsc, bsc_capacity, random_dmc, z_channel_matching


def noiseless() -> Dmc:
    return Dmc([[1.0, 0.0], [0.0, 1.0]])


def test_solve_s_duplicate_step_atoms_open_boundary(uniform2):
    # two zero-variance atoms at the rate: the whole mass jumps at S = 0
    mix = MixedChannel(((0.5, noiseless()), (0.5, bsc(0.0))))
    res = solve_s(mix, uniform2, math.log(2), eps=0.6)
    assert res.s_value == 0.0 and res.open_boundary


def _cyclic_half() -> Dmc:
    # constant information density at the uniform input: I = log(3/2), V = 0
    return Dmc([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])


def _symmetric_matching_cyclic() -> Dmc:
    # symmetric ternary channel tuned so I(uniform) = log(3/2), with V > 0
    target = math.log(1.5)
    p3 = InputDist([1 / 3, 1 / 3, 1 / 3])

    def info(delta):
        rows = np.full((3, 3), delta)
        np.fill_diagonal(rows, 1.0 - 2.0 * delta)
        return mutual_information(p3, Dmc(rows))

    lo, hi = 1e-6, 1 / 3 - 1e-6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if info(mid) > target:
            lo = mid
        else:
            hi = mid
    delta = 0.5 * (lo + hi)
    rows = np.full((3, 3), delta)
    np.fill_diagonal(rows, 1.0 - 2.0 * delta)
    return Dmc(rows)


def test_solve_s_step_and_gaussian_mixture_all_branches():
    """Both a jump atom and a Gaussian atom at the rate: the sup moves from a
    negative closed root through the open jump point to a positive root as the
    error budget grows."""
    p3 = InputDist([1 / 3, 1 / 3, 1 / 3])
    step_ch = _cyclic_half()
    gauss_ch = _symmetric_matching_cyclic()
    assert channel_dispersion(p3, step_ch) == pytest.approx(0.0, abs=1e-15)
    v = channel_dispersion(p3, gauss_ch)
    assert v > 1e-4
    mix = MixedChannel(((0.4, step_ch), (0.6, gauss_ch)))
    r = math.log(1.5)

    low = solve_s(mix, p3, r, eps=0.2)
    assert not low.open_boundary
    assert low.s_value == pytest.approx(math.sqrt(v) * gaussian_inv(0.2 / 0.6), abs=1e-8)

    middle = solve_s(mix, p3, r, eps=0.5)  # in [0.3, 0.7): jump dominates
    assert middle.s_value == 0.0 and middle.open_boundary

    high = solve_s(mix, p3, r, eps=0.85)
    assert not high.open_boundary
    assert high.s_value == pytest.approx(
        math.sqrt(v) * gaussian_inv((0.85 - 0.4) / 0.6), abs=1e-8)


def test_solve_s_gaussian_below_step(uniform2):
    # positive-variance atom at the rate with eps below one half: the sup is a
    # negative closed boundary
    w_var = bsc(0.11)
    r = mutual_information(uniform2, w_var)
    mix = MixedChannel(((1.0, w_var),))
    res = solve_s(mix, uniform2, r, eps=0.2)
    assert res.s_value < 0.0 and not res.open_boundary


def test_solve_s_step_infeasible_above_jump(uniform2):
    # noiseless atom at the rate with eps below the jump: sup is the open 0
    mix = MixedChannel.singleton(noiseless())
    res = solve_s(mix, uniform2, math.log(2), eps=0.99)
    assert res.s_value == 0.0 and res.open_boundary


def test_second_order_tied_duplicate_components(uniform2):
    mix = MixedChannel(((0.3, bsc(0.11)), (0.3, bsc(0.11)), (0.4, bsc(0.2))))
    eps = 0.5
    res = second_order_well_ordered(mix, eps=eps)
    # rate pins the duplicated stronger atoms; their merged mass is 0.6 and
    # the strictly-below mass is 0.4, so solve 0.6 Psi(S) = 0.1
    v = channel_dispersion(uniform2, bsc(0.11))
    oracle = math.sqrt(v) * gaussian_inv((eps - 0.4) / 0.6)
    assert res.rate == pytest.approx(bsc_capacity(0.11), abs=1e-9)
    assert res.theta2_mass == pytest.approx(0.6)
    assert res.s_value == pytest.approx(oracle, abs=1e-7)


def test_second_order_lb_runs_on_unordered_mixture():
    zch = z_channel_matching(bsc_capacity(0.11))
    pair = MixedChannel(((0.5, bsc(0.11)), (0.5, zch)))
    res = second_order_lb(pair, eps=0.3)
    assert res.method == "lower-bound"
    assert res.rate > 0


def test_eps_capacity_five_input_multistart():
    rng = np.random.default_rng(71)
    rows = rng.dirichlet(np.ones(3), size=5)
    w1 = Dmc(rows)
    w2 = Dmc(rows[::-1])
    mix = MixedChannel(((0.5, w1), (0.5, w2)))
    res1 = eps_capacity(mix, eps=0.25)
    res2 = eps_capacity(mix, eps=0.25)
    assert res1.capacity == res2.capacity  # deterministic multi-start
    for comp_opt in (res1.argmax_input,):
        assert res1.capacity >= rate_quantile(mix, comp_opt, 0.25) - 1e-12


def test_well_ordered_capacity_with_budget(uniform2):
    mix = MixedChannel(((0.5, bsc(0.05)), (0.5, bsc(0.2))))
    from mixcap import CostSpec

    cost = CostSpec(np.array([1.0, 0.0]), gamma=0.3)
    res = eps_capacity_well_ordered(mix, cost, eps=0.25)
    assert cost.admits(res.argmax_input)
    free = eps_capacity_well_ordered(mix, eps=0.25)
    assert res.capacity <= free.capacity + 1e-12


def test_eps_at_a_mass_boundary(tmp_path):
    """The mass below C(BSC(0.02)) is 0.1 + 0.2, which sums to 0.30000000000000004 in
    floats: at eps 0.3 both paths count it as within eps, and the second-order rate runs
    at that capacity, where the at-rate Gaussian mass leaves no S feasible."""
    spec = tmp_path / "edge.json"
    spec.write_text(json.dumps({"generator": {"family": "bsc", "params": [
        {"p": 0.02, "weight": 0.7}, {"p": 0.11, "weight": 0.2}, {"p": 0.25, "weight": 0.1}]}}))
    mix, cost = load_spec(str(spec))
    for eps in (0.3, 0.1 + 0.2):
        for res in (eps_capacity(mix, cost, eps), eps_capacity_well_ordered(mix, cost, eps)):
            assert res.capacity == pytest.approx(bsc_capacity(0.02), abs=1e-9)
            assert res.mass_below == pytest.approx(0.3, abs=1e-15)
        for res in (second_order_lb(mix, cost, eps=eps),
                    second_order_well_ordered(mix, cost, eps)):
            assert res.rate == pytest.approx(bsc_capacity(0.02), abs=1e-9)
            assert res.s_value == -math.inf


def test_mc_fallback_only_when_needed(uniform2):
    # lattice spectrum stays exact even when trials are offered
    w = bsc(0.11)
    est = feinstein_bound(MixedChannel.singleton(w), uniform2,
                          CodeParams(150, 0.2), SlackParams(eta=0.05),
                          mc_trials=10_000, seed=5)
    assert est.trials == 0 and est.stderr == 0.0
    # generic channel at large n cannot convolve exactly and must sample;
    # pitching the rate at the mutual information keeps the tail interior
    rng = np.random.default_rng(3)
    w2 = random_dmc(rng)
    mid = mutual_information(uniform2, w2)
    est2 = feinstein_bound(MixedChannel.singleton(w2), uniform2,
                           CodeParams(150, mid - 0.01), SlackParams(eta=0.01),
                           mc_trials=10_000, seed=5)
    assert est2.trials == 10_000 and est2.stderr > 0.0


def test_cli_fbl_hn_and_exact(tmp_path, capsys):
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps({
        "atoms": [{"weight": 1.0, "rows": [[0.89, 0.11], [0.11, 0.89]]}]}))
    assert main(["fbl", str(spec), "--n", "80", "--rate", "0.2",
                 "--bound", "hn", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].startswith("hn,")
    assert main(["fbl", str(spec), "--n", "80", "--rate", "0.2",
                 "--bound", "exact", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    row = out.splitlines()[1]
    assert row.startswith("exact,") and ",exact," in row


def test_cli_second_order_tie_tol_flag(tmp_path, capsys):
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps({
        "atoms": [{"weight": 1.0, "rows": [[0.89, 0.11], [0.11, 0.89]]}]}))
    assert main(["second-order", str(spec), "--eps", "0.1",
                 "--tie-tol", "1e-8", "--well-ordered"]) == 0
    out = capsys.readouterr().out
    assert "exact-formula" in out


def test_mc_tail_with_composition_input(uniform2):
    from mixcap import TypeClass, aggregate_spectrum, mc_tail

    w = bsc(0.11)
    q = output_distribution(uniform2, w)
    comp = TypeClass(np.array([3, 5]), 8)
    spec = aggregate_spectrum(w, comp, q, 8)
    thresh = spec.aggregate.mean() / 8
    exact = spec.tail_leq(thresh)
    est = mc_tail(w, comp, q, 8, thresh, trials=100_000, seed=21)
    assert abs(est.value - exact) <= 4 * est.stderr


def test_cli_second_order_rejects_rate_with_well_ordered(tmp_path, capsys):
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps({
        "atoms": [{"weight": 1.0, "rows": [[0.89, 0.11], [0.11, 0.89]]}]}))
    assert main(["second-order", str(spec), "--eps", "0.1", "--rate", "0.2",
                 "--well-ordered"]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_gamma_flag_on_eps_capacity(tmp_path, capsys):
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps({
        "cost": [1.0, 0.0],
        "atoms": [{"weight": 1.0, "rows": [[0.89, 0.11], [0.11, 0.89]]}]}))
    assert main(["eps-capacity", str(spec), "--eps", "0.1", "--gamma", "0.2"]) == 0
    capped = float(capsys.readouterr().out.splitlines()[1].split(",")[1])
    assert main(["eps-capacity", str(spec), "--eps", "0.1"]) == 0
    free = float(capsys.readouterr().out.splitlines()[1].split(",")[1])
    assert capped < free
