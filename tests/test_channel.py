import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcap import (
    CostSpec,
    Dmc,
    DominationError,
    InputDist,
    MixedChannel,
    channel_dispersion,
    divergence,
    gaussian_cdf,
    gaussian_inv,
    mutual_information,
    output_distribution,
    psi_from_variance,
)
from mixcap.channel import _divergences, informations, log_density
from conftest import bsc, binary_entropy, random_dmc


def test_dmc_rejects_bad_rows():
    with pytest.raises(ValueError, match="row 1"):
        Dmc([[0.5, 0.5], [0.6, 0.5]])
    with pytest.raises(ValueError):
        Dmc([[1.1, -0.1]])
    with pytest.raises(ValueError):
        Dmc(np.zeros((0, 2)))


def test_input_dist_validation():
    with pytest.raises(ValueError):
        InputDist([0.5, 0.6])
    with pytest.raises(ValueError):
        InputDist([-0.1, 1.1])
    p = InputDist([0.25, 0.75])
    assert p.size == 2


def test_cost_spec_gamma_zero_and_feasibility():
    cost = CostSpec([2.0, 0.5], gamma=1.0)
    assert cost.gamma_zero == 0.5
    cost.check_feasible()
    bad = CostSpec([2.0, 0.5], gamma=0.25)
    with pytest.raises(ValueError):
        bad.check_feasible()
    assert CostSpec([1.0, 0.0], gamma=None).is_unconstrained
    assert CostSpec([1.0, 0.0], gamma=1.0).is_unconstrained  # budget covers max cost


def test_mixed_channel_validation():
    with pytest.raises(ValueError, match="sum"):
        MixedChannel(((0.5, bsc(0.1)), (0.4, bsc(0.2))))
    with pytest.raises(ValueError, match="shape"):
        MixedChannel(((0.5, bsc(0.1)), (0.5, Dmc([[0.2, 0.3, 0.5], [0.1, 0.1, 0.8]]))))
    mix = MixedChannel(((0.25, bsc(0.1)), (0.75, bsc(0.2))))
    assert mix.num_atoms == 2 and mix.num_inputs == 2


def test_output_distribution_examples(uniform2):
    ident = Dmc([[1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(output_distribution(uniform2, ident), [0.5, 0.5])
    point = InputDist([1.0, 0.0])
    w = bsc(0.3)
    assert np.allclose(output_distribution(point, w), w.rows[0])
    assert np.allclose(output_distribution(uniform2, bsc(0.11)), [0.5, 0.5])
    with pytest.raises(ValueError):
        output_distribution(InputDist([1.0]), w)


def test_mutual_information_examples(uniform2):
    assert mutual_information(uniform2, bsc(0.5)) == pytest.approx(0.0, abs=1e-14)
    assert mutual_information(uniform2, bsc(0.0)) == pytest.approx(math.log(2), abs=1e-14)
    expected = math.log(2) - binary_entropy(0.11)
    assert mutual_information(uniform2, bsc(0.11)) == pytest.approx(expected, abs=1e-13)


def test_divergence_examples():
    assert divergence([0.3, 0.7], [0.3, 0.7]) == 0.0
    assert divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2))
    assert divergence([0.5, 0.5], [1.0, 0.0]) == math.inf


def test_log_rows_is_read_only_log_on_support():
    rng = np.random.default_rng(17)
    rows = rng.dirichlet(np.ones(4), size=3) * (rng.random((3, 4)) < 0.6)
    rows[:, 0] += 1.0 - rows.sum(axis=1)  # keep each row a distribution
    w = Dmc(rows)
    support = w.rows > 0.0
    assert not support.all()
    assert not w.log_rows.flags.writeable
    assert np.array_equal(w.log_rows[support], np.log(w.rows[support]))
    assert np.all(w.log_rows[~support] == -np.inf)


def test_divergence_is_the_row_kernel():
    rng = np.random.default_rng(23)
    for k in (2, 3, 9, 17):  # 9 and 17 span numpy's 8-wide summation blocks
        for _ in range(20):
            p = rng.dirichlet(np.ones(k)) * (rng.random(k) < 0.7)
            p[int(np.argmax(p))] += 1.0 - p.sum()
            q = rng.dirichlet(np.ones(k)) * (rng.random(k) < 0.9)
            q[int(np.argmax(q))] += 1.0 - q.sum()
            w = Dmc([p])
            d_row = _divergences(w.rows, w.log_rows, q)[0]
            d = divergence(p, q)
            assert d == d_row
            assert (d == math.inf) == bool(np.any((p > 0.0) & (q <= 0.0)))


def test_log_density_reference_must_dominate():
    w = Dmc([[1.0, 0.0, 0.0], [0.2, 0.3, 0.5]])
    q = np.array([0.5, 0.5, 0.0])  # misses y=2, reachable from x=1
    with pytest.raises(DominationError, match=r"y=2, reachable from x=1") as err:
        log_density([0.5, 0.5], w, q)
    assert isinstance(err.value, ValueError)
    # a zero-weight input letter reaches nothing
    dens = log_density([1.0, 0.0], w, q)
    assert dens[0, 0] == pytest.approx(math.log(2.0))
    assert np.all(dens[0, 1:] == -np.inf) and np.all(dens[1] == -np.inf)


def test_dispersion_examples(uniform2):
    assert channel_dispersion(uniform2, bsc(0.5)) == pytest.approx(0.0, abs=1e-14)
    ident = Dmc([[1.0, 0.0], [0.0, 1.0]])
    assert channel_dispersion(uniform2, ident) == pytest.approx(0.0, abs=1e-14)
    p = 0.11
    closed = p * (1 - p) * math.log((1 - p) / p) ** 2
    assert channel_dispersion(uniform2, bsc(p)) == pytest.approx(closed, abs=1e-12)


def test_dispersion_invariant_under_output_relabeling(uniform2):
    rng = np.random.default_rng(5)
    for _ in range(20):
        w = random_dmc(rng, 2, 3)
        perm = rng.permutation(3)
        w2 = Dmc(w.rows[:, perm])
        assert channel_dispersion(uniform2, w) == pytest.approx(
            channel_dispersion(uniform2, w2), abs=1e-12)


def test_mutual_info_is_average_divergence():
    rng = np.random.default_rng(11)
    for _ in range(30):
        w = random_dmc(rng, 3, 3)
        probs = rng.dirichlet(np.ones(3))
        p = InputDist(probs)
        pw = output_distribution(p, w)
        avg = sum(p.probs[x] * divergence(w.rows[x], pw) for x in range(3))
        assert mutual_information(p, w) == pytest.approx(avg, abs=1e-12)


def test_gaussian_cdf_inverse():
    assert gaussian_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert gaussian_inv(0.5) == pytest.approx(0.0, abs=1e-12)
    for eps in (1e-6, 0.01, 0.1, 0.25, 0.5, 0.77, 0.9, 0.999, 1 - 1e-6):
        assert gaussian_cdf(gaussian_inv(eps)) == pytest.approx(eps, abs=1e-9)
    with pytest.raises(ValueError):
        gaussian_inv(0.0)
    with pytest.raises(ValueError):
        gaussian_inv(1.0)


@given(st.floats(min_value=-8, max_value=8), st.floats(min_value=-8, max_value=8))
@settings(max_examples=50, deadline=None)
def test_gaussian_cdf_monotone(a, b):
    lo, hi = min(a, b), max(a, b)
    assert gaussian_cdf(lo) <= gaussian_cdf(hi) + 1e-15


def test_slack_params_validation():
    from mixcap import SlackParams

    with pytest.raises(ValueError):
        SlackParams(eta=0.0)
    with pytest.raises(ValueError):
        SlackParams(eta=0.1, gamma_slack=-1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite positive"):
            SlackParams(eta=bad)
        with pytest.raises(ValueError, match="finite positive"):
            SlackParams(eta=0.1, gamma_slack=bad)
    sp = SlackParams(eta=0.1, gamma_slack=2.0)
    assert sp.gamma_slack == 2.0


def test_psi_examples():
    assert psi_from_variance(1.0, 0.0) == pytest.approx(0.5)
    assert psi_from_variance(0.0, -0.01) == 0.0
    assert psi_from_variance(0.0, 0.0) == 1.0
    assert psi_from_variance(4.0, 2.0) == pytest.approx(gaussian_cdf(1.0))


@given(st.floats(min_value=0, max_value=5), st.floats(min_value=-5, max_value=5),
       st.floats(min_value=-5, max_value=5))
@settings(max_examples=60, deadline=None)
def test_psi_nondecreasing_in_s(v, a, b):
    lo, hi = min(a, b), max(a, b)
    assert psi_from_variance(v, lo) <= psi_from_variance(v, hi) + 1e-15


@st.composite
def stacked_mixtures(draw):
    """(mixture, P) with K in 1-8 and |X|, |Y| in 1-5, with zeros in W and in P.  On
    request the last letter is unused and alone reaches the last output, so its
    divergence against P W is +inf."""
    k, kx, ky = draw(st.integers(1, 8)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    w = np.array(draw(st.lists(st.integers(0, 1000), min_size=k * kx * ky,
                               max_size=k * kx * ky)), dtype=float).reshape(k, kx, ky)
    p = np.array(draw(st.lists(st.integers(0, 1000), min_size=kx, max_size=kx)), dtype=float)
    if kx > 1 and ky > 1 and draw(st.booleans()):
        p[-1], w[:, :-1, -1], w[:, -1, -1] = 0.0, 0.0, w[:, -1, -1] + 1.0
    w[..., 0] += w.sum(axis=-1) == 0.0
    p[0] += p.sum() == 0.0
    weights = np.full(k, 1.0 / k)
    mixed = MixedChannel(tuple(zip(weights, map(Dmc, w / w.sum(axis=-1, keepdims=True)))))
    return mixed, InputDist(p / p.sum())


@given(stacked_mixtures())
@settings(max_examples=300, deadline=None)
def test_information_kernel_matches_each_atom_bit_for_bit(case):
    """One kernel call over the stored stack gives each atom's mutual_information
    exactly, and agrees with a plain double sum over the reachable cells."""
    mixed, p = case
    infos = informations(p.probs, mixed.rows, mixed.log_rows)
    assert infos.tolist() == [mutual_information(p, comp) for comp in mixed.components]
    for info, comp in zip(infos, mixed.components):
        q = p.probs @ comp.rows
        cells = [(x, y) for x in range(comp.num_inputs) for y in range(comp.num_outputs)
                 if p.probs[x] > 0.0 and comp.rows[x, y] > 0.0]
        plain = math.fsum(p.probs[x] * comp.rows[x, y] * math.log(comp.rows[x, y] / q[y])
                          for x, y in cells)
        assert info == pytest.approx(max(plain, 0.0), abs=1e-12)


def test_information_kernel_names_both_sizes():
    mixed = MixedChannel(((0.5, bsc(0.1)), (0.5, bsc(0.2))))
    with pytest.raises(ValueError, match="input size 3 does not match channel inputs 2"):
        informations(np.full(3, 1.0 / 3.0), mixed.rows, mixed.log_rows)
    with pytest.raises(ValueError, match="input size 3 does not match channel inputs 2"):
        mutual_information(InputDist.uniform(3), bsc(0.1))


def test_mixed_channel_arrays_are_read_only():
    mixed = MixedChannel(((0.25, bsc(0.1)), (0.75, bsc(0.2))))
    assert mixed.weights.tolist() == [0.25, 0.75]
    assert mixed.rows.shape == mixed.log_rows.shape == (2, 2, 2)
    assert (mixed.rows[1] == bsc(0.2).rows).all()
    for arr in (mixed.weights, mixed.rows, mixed.log_rows):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.5
    assert mixed.weights is mixed.weights  # stored, not rebuilt per access
