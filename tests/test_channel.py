import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcap import (
    CostSpec,
    Dmc,
    DominationError,
    InfoStats,
    InputDist,
    MixedChannel,
    channel_dispersion,
    divergence,
    gaussian_cdf,
    gaussian_inv,
    info_stats,
    mutual_information,
    output_distribution,
    psi,
    psi_from_variance,
)
from mixcap.channel import row_divergences
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
            d_row = row_divergences(Dmc([p]), q)[0]
            d = divergence(p, q)
            assert d == d_row
            assert (d == math.inf) == bool(np.any((p > 0.0) & (q <= 0.0)))


def test_info_stats_reference_must_dominate():
    w = Dmc([[1.0, 0.0, 0.0], [0.2, 0.3, 0.5]])
    q = np.array([0.5, 0.5, 0.0])  # misses y=2, reachable from x=1
    with pytest.raises(DominationError, match=r"y=2, reachable from x=1") as err:
        info_stats(InputDist([0.5, 0.5]), w, ref_output=q)
    assert isinstance(err.value, ValueError)
    # a letter left out of the composition reaches nothing
    stats = info_stats(InputDist([0.5, 0.5]), w, composition=InputDist([1.0, 0.0]),
                       ref_output=q)
    assert stats.comp_variance == 0.0


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
    sp = SlackParams(eta=0.1, gamma_slack=2.0)
    assert sp.gamma_slack == 2.0


def test_psi_examples():
    stats = InfoStats(0.1, 1.0, 1.0, 1.0)
    assert psi(stats, 0.0) == pytest.approx(0.5)
    step = InfoStats(0.1, 0.0, 0.0, 0.0)
    assert psi(step, -0.01) == 0.0
    assert psi(step, 0.0) == 1.0
    assert psi_from_variance(4.0, 2.0) == pytest.approx(gaussian_cdf(1.0))


@given(st.floats(min_value=0, max_value=5), st.floats(min_value=-5, max_value=5),
       st.floats(min_value=-5, max_value=5))
@settings(max_examples=60, deadline=None)
def test_psi_nondecreasing_in_s(v, a, b):
    lo, hi = min(a, b), max(a, b)
    assert psi_from_variance(v, lo) <= psi_from_variance(v, hi) + 1e-15


def test_info_stats_bundle(uniform2):
    w = bsc(0.11)
    stats = info_stats(uniform2, w)
    assert stats.mutual_info == pytest.approx(mutual_information(uniform2, w))
    assert stats.dispersion == pytest.approx(channel_dispersion(uniform2, w))
    assert stats.comp_variance == pytest.approx(stats.dispersion)
    assert stats.third_abs_moment > 0
    # composition and reference output override (asymmetric channel, so the
    # per-letter conditional variances differ across inputs)
    w2 = Dmc([[0.9, 0.1], [0.4, 0.6]])
    comp = InputDist([0.25, 0.75])
    q = output_distribution(uniform2, w2)
    s_unif = info_stats(uniform2, w2)
    s_comp = info_stats(uniform2, w2, composition=comp, ref_output=q)
    assert s_comp.comp_variance != pytest.approx(s_unif.comp_variance)
