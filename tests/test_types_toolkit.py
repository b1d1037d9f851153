import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcap import (
    CodeParams,
    CostSpec,
    EnumerationCapError,
    InputDist,
    MixedChannel,
    SlackParams,
    decomposition_check,
    enumerate_types,
    expurgated_space,
    mixture_converse_enumeration,
    mixed_converse_bound,
    output_distribution,
    quantized_type,
)
from mixcap.types_toolkit import TypeClass, compositions, count_types
from conftest import bsc, random_dmc


def test_quantized_type_examples():
    assert np.array_equal(quantized_type(InputDist([0.5, 0.5]), 4).counts, [2, 2])
    t = quantized_type(InputDist([1 / 3, 2 / 3]), 4, CostSpec([1.0, 0.0]))
    assert np.array_equal(t.counts, [1, 3])
    t3 = quantized_type(InputDist([0.3, 0.3, 0.4]), 10, CostSpec([2.0, 1.0, 0.0]))
    assert np.array_equal(t3.counts, [3, 3, 4])


def test_quantized_type_contract_random():
    rng = np.random.default_rng(13)
    for _ in range(200):
        k = int(rng.integers(2, 5))
        p0 = InputDist(rng.dirichlet(np.ones(k)))
        n = int(rng.integers(1, 60))
        costs = CostSpec(rng.uniform(0, 3, size=k))
        t = quantized_type(p0, n, costs)
        assert int(t.counts.sum()) == n
        assert float(t.fractions @ costs.costs) <= float(p0.probs @ costs.costs) + 1e-12
        assert np.max(np.abs(t.fractions - p0.probs)) <= k / n


@given(st.integers(min_value=2, max_value=4), st.integers(min_value=1, max_value=40))
@settings(max_examples=40, deadline=None)
def test_quantized_type_deviation_property(k, n):
    rng = np.random.default_rng(k * 1000 + n)
    p0 = InputDist(rng.dirichlet(np.ones(k)))
    t = quantized_type(p0, n)
    assert np.max(np.abs(t.fractions - p0.probs)) <= k / n


def test_enumerate_types_counts():
    assert len(enumerate_types(2, 3)) == 4
    assert len(enumerate_types(1, 7)) == 1
    assert len(enumerate_types(3, 4)) == 15
    for k, n in ((2, 5), (3, 6), (4, 4)):
        types = enumerate_types(k, n)
        assert len(types) == math.comb(n + k - 1, k - 1)
        assert len(types) <= (n + 1) ** k
        assert len({tuple(t.counts) for t in types}) == len(types)


def test_enumerate_types_cap():
    with pytest.raises(EnumerationCapError):
        enumerate_types(6, 200)


def test_expurgation_singleton_and_duplicates(uniform2):
    single = MixedChannel.singleton(bsc(0.11))
    q = [output_distribution(uniform2, bsc(0.11))]
    rep = expurgated_space(single, q, 8)
    assert rep.mass == 1.0 and rep.member_mask == (True,)
    dup = MixedChannel(((0.4, bsc(0.11)), (0.6, bsc(0.11))))
    rep2 = expurgated_space(dup, [q[0], q[0]], 8)
    assert rep2.mass == 1.0


def test_expurgation_bsc_pair(uniform2):
    mix = MixedChannel(((0.5, bsc(0.05)), (0.5, bsc(0.2))))
    outs = [output_distribution(uniform2, c) for c in mix.components]
    rep = expurgated_space(mix, outs, 16)
    assert rep.mass >= max(rep.bound, 0.0)
    assert rep.n == 16
    assert len(rep.member_mask) == 2


def test_decomposition_singleton_trivial(uniform2):
    mix = MixedChannel.singleton(bsc(0.11))
    outs = [output_distribution(uniform2, bsc(0.11))]
    comp = quantized_type(uniform2, 8)
    report = decomposition_check(mix, comp, outs, 8, SlackParams(eta=1.0, gamma_slack=1.0),
                                 np.linspace(0.05, 1.5, 20))
    assert report.passed


def test_decomposition_bsc_pair(uniform2):
    mix = MixedChannel(((0.5, bsc(0.05)), (0.5, bsc(0.2))))
    outs = [output_distribution(uniform2, c) for c in mix.components]
    comp = quantized_type(uniform2, 12)
    report = decomposition_check(mix, comp, outs, 12, SlackParams(eta=1.0, gamma_slack=1.0),
                                 np.linspace(0.02, 1.7, 50))
    assert report.passed, report.failures[:3]
    assert report.member_atoms == (0, 1)


def test_decomposition_rejects_mismatched_n(uniform2):
    mix = MixedChannel.singleton(bsc(0.11))
    outs = [output_distribution(uniform2, bsc(0.11))]
    with pytest.raises(ValueError):
        decomposition_check(mix, quantized_type(uniform2, 8), outs, 12,
                            SlackParams(eta=1.0), [0.5])


def test_mixture_converse_enumeration_matches_convolution(uniform2):
    mix = MixedChannel(((0.5, bsc(0.05)), (0.5, bsc(0.2))))
    outs = [output_distribution(uniform2, c) for c in mix.components]
    comp = quantized_type(uniform2, 8)
    for rate, eta in ((0.8, 0.3), (0.5, 0.2), (0.45, 0.1)):
        conv = mixed_converse_bound(mix, CodeParams.from_rate(8, rate), outs,
                                    SlackParams(eta=eta), input_spec=comp)
        brute = mixture_converse_enumeration(mix, comp, outs, rate, eta)
        assert abs(conv.value - brute) <= 1e-12


def test_mixture_converse_enumeration_respects_cap(uniform2):
    mix = MixedChannel.singleton(bsc(0.11))
    outs = [output_distribution(uniform2, bsc(0.11))]
    with pytest.raises(EnumerationCapError):
        mixture_converse_enumeration(mix, quantized_type(uniform2, 40), outs, 0.3, 0.1)


def test_typeclass_validation():
    with pytest.raises(ValueError):
        TypeClass(np.array([2, 3]), 4)
    with pytest.raises(ValueError):
        TypeClass(np.array([-1, 5]), 4)
    t = TypeClass(np.array([1, 3]), 4)
    assert np.array_equal(t.canonical_word(), [0, 1, 1, 1])


def test_expurgation_general_reference(uniform2):
    # references that are not the component outputs still satisfy the bound
    rng = np.random.default_rng(31)
    for _ in range(5):
        mix = MixedChannel(((0.5, random_dmc(rng)), (0.5, random_dmc(rng))))
        q_list = [rng.dirichlet(np.ones(2)) for _ in range(2)]
        rep = expurgated_space(mix, q_list, 8)
        assert rep.mass >= rep.bound - 1e-12


@pytest.mark.parametrize("parts", [1, 2, 3, 4])
@pytest.mark.parametrize("total", [0, 1, 2, 5])
def test_compositions_match_filtered_product(total, parts):
    got = list(compositions(total, parts))
    expected = [c for c in itertools.product(range(total + 1), repeat=parts)
                if sum(c) == total]
    assert got == expected
    assert len(got) == count_types(parts, total)
