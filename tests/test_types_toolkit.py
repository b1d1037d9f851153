import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcap import (
    CodeParams,
    CostSpec,
    Dmc,
    EnumerationCapError,
    InputDist,
    MixedChannel,
    SlackParams,
    TypeClass,
    decomposition_check,
    enumerate_types,
    expurgated_space,
    mixture_converse_enumeration,
    mixed_converse_bound,
    output_distribution,
    quantized_type,
)
from mixcap import types_toolkit
from mixcap.channel import log_density
from mixcap.types_toolkit import ExpurgationReport, count_types
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
    assert enumerate_types(2, 3).tolist() == [[0, 3], [1, 2], [2, 1], [3, 0]]
    assert enumerate_types(1, 7).tolist() == [[7]]
    assert enumerate_types(3, 0).tolist() == [[0, 0, 0]]
    assert enumerate_types(3, 4).shape == (15, 3)
    for k, n in ((2, 5), (3, 6), (4, 4)):
        types = enumerate_types(k, n)
        assert len(types) == math.comb(n + k - 1, k - 1)
        assert len(types) <= (n + 1) ** k
        assert len({tuple(t) for t in types}) == len(types)
        assert np.all(types.sum(axis=1) == n) and np.all(types >= 0)


def test_enumerate_types_cap():
    with pytest.raises(EnumerationCapError):
        enumerate_types(6, 200)
    # C(68, 8), about 7.4e9 rows: refused from the count alone, before any allocation
    with pytest.raises(EnumerationCapError):
        enumerate_types(9, 60)


def test_enumerate_types_refuses_a_table_past_the_cell_cap():
    """The joint types of a 33x33 channel at n = 2: 593,505 rows, under ENUM_CAP, but
    6.5e8 cells (about 5 GB), refused before allocation."""
    assert count_types(1089, 2) <= types_toolkit.ENUM_CAP
    with pytest.raises(EnumerationCapError, match="table cells"):
        enumerate_types(1089, 2)


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
        conv = mixed_converse_bound(mix, CodeParams(8, rate), outs,
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
    got = [tuple(c) for c in enumerate_types(parts, total).tolist()]
    expected = [c for c in itertools.product(range(total + 1), repeat=parts)
                if sum(c) == total]
    assert got == expected
    assert len(got) == count_types(parts, total)


# A per-joint-type reference: the recursive enumeration and the scalar loops
# that expurgated_space and decomposition_check replaced by array statistics.

def _ref_compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _ref_compositions(total - first, parts - 1):
            yield (first, *rest)


def _ref_logsumexp(vals):
    hi = np.max(vals)
    if hi == -np.inf:
        return -np.inf
    return float(hi + np.log(np.sum(np.exp(vals - hi))))


def _ref_dot(counts, logv):
    counts, logv = counts.reshape(-1), logv.reshape(-1)
    active = counts > 0
    if np.any(~np.isfinite(logv[active])):
        return -np.inf
    return float(np.sum(counts[active] * logv[active]))


def _ref_log_multinomial(total, parts):
    return math.lgamma(total + 1) - sum(math.lgamma(int(p) + 1) for p in parts)


def _ref_members(mixed, q_list, n):
    kx, ky = mixed.num_inputs, mixed.num_outputs
    logw = np.log(mixed.weights)
    member = np.ones(mixed.num_atoms, dtype=bool)
    laws_and_counts = (
        (np.log(np.asarray(q_list)), [np.array(c) for c in _ref_compositions(n, ky)]),
        ([c.log_rows for c in mixed.components],
         [np.array(c).reshape(kx, ky) for c in _ref_compositions(n, kx * ky)]),
    )
    for laws, count_list in laws_and_counts:
        for counts in count_list:
            log_each = np.array([_ref_dot(counts, law) for law in laws])
            member &= log_each <= n ** 0.25 + _ref_logsumexp(logw + log_each) + 1e-12
    return tuple(bool(m) for m in member)


def _ref_failures(mixed, composition, q_list, n, gamma, z_grid, members):
    kx, ky, atoms = mixed.num_inputs, mixed.num_outputs, mixed.num_atoms
    shift = gamma / math.sqrt(n) + n ** -0.75
    leak = math.exp(-math.sqrt(n) * gamma)
    logw = np.log(mixed.weights)
    m_counts = composition.counts
    log_t_size = _ref_log_multinomial(n, m_counts)
    per_row = [[np.array(c) for c in _ref_compositions(int(m), ky)] for m in m_counts]
    joints = [np.stack(rows) for rows in itertools.product(*per_row)]
    log_q = np.log(np.asarray(q_list))
    log_wn = np.array([[_ref_dot(J, c.log_rows) for J in joints] for c in mixed.components])
    dens = [log_density(m_counts, c, q) for c, q in zip(mixed.components, q_list)]
    log_dens_n = np.array([[_ref_dot(J, d) for J in joints] for d in dens])
    log_mix_wn = np.array([_ref_logsumexp(logw + log_wn[:, j]) for j in range(len(joints))])
    log_pr = np.array([[sum(_ref_log_multinomial(int(m_counts[a]), J[a]) for a in range(kx))
                        + log_wn[k][j] for j, J in enumerate(joints)] for k in range(atoms)])
    t_of = [tuple(int(v) for v in J.sum(axis=0)) for J in joints]
    out_types = {}
    for j, t in enumerate(t_of):
        out_types.setdefault(t, []).append(j)
    log_py = {}
    for t, idxs in out_types.items():
        col = [sum(_ref_log_multinomial(t[b], joints[j][:, b]) for b in range(ky)) for j in idxs]
        for k in range(atoms):
            vals = np.array([col[i] + log_wn[k][j] for i, j in enumerate(idxs)])
            log_py[(k, t)] = _ref_logsumexp(vals) - log_t_size
    log_py_mix = {t: _ref_logsumexp(np.array([logw[k] + log_py[(k, t)] for k in range(atoms)]))
                  for t in out_types}
    log_qn_mix = {t: _ref_logsumexp(logw + np.array([_ref_dot(np.array(t), log_q[k])
                                                     for k in range(atoms)]))
                  for t in out_types}

    def tail(stat, probs_log, z):
        mask = stat <= z * n + 1e-12
        return float(np.exp(_ref_logsumexp(probs_log[mask]))) if np.any(mask) else 0.0

    failures = []
    for k in members:
        upper_lhs = np.array([log_mix_wn[j] - log_py_mix[t] for j, t in enumerate(t_of)])
        upper_rhs = np.array([log_wn[k][j] - log_py[(k, t)] for j, t in enumerate(t_of)])
        lower_lhs = np.array([log_mix_wn[j] - log_qn_mix[t] for j, t in enumerate(t_of)])
        for z in z_grid:
            lhs, rhs = tail(upper_lhs, log_pr[k], z), tail(upper_rhs, log_pr[k], z + shift) + leak
            if lhs > rhs + 1e-10:
                failures.append(("upper", k, float(z), lhs, rhs))
            lhs = tail(lower_lhs, log_pr[k], z)
            rhs = tail(log_dens_n[k], log_pr[k], z - shift) - leak
            if lhs < rhs - 1e-10:
                failures.append(("lower", k, float(z), lhs, rhs))
    return failures


def test_array_statistics_match_per_joint_type_loops(monkeypatch):
    """Member mask, pass flag and failures agree with the per-joint-type loops.

    The lemmas hold for every dominated atom, so only an atom outside the
    dominated set can fail them: the check is run over every atom, on noisy
    permutation channels with one light atom, where some inequalities fail.
    """
    monkeypatch.setattr(types_toolkit, "expurgated_space", lambda mixed, q_list, n:
                        ExpurgationReport((True,) * mixed.num_atoms, 1.0, 0.0, n))
    rng = np.random.default_rng(1)
    seen_failures, seen_non_members = set(), 0
    for case in range(16):
        kx, ky = (int(v) for v in rng.integers(2, 4, size=2))
        atoms = int(rng.integers(2, 4))
        weights = rng.dirichlet(np.ones(atoms)) * rng.permutation(np.r_[1e-5, np.ones(atoms - 1)])
        mixed = MixedChannel(tuple(
            (float(w), Dmc(0.95 * np.eye(ky)[rng.integers(ky, size=kx)]
                           + 0.05 * rng.dirichlet(np.ones(ky), size=kx)))
            for w in weights / weights.sum()))
        n = int(rng.integers(4, 9))
        comp = TypeClass(rng.multinomial(n, np.ones(kx) / kx), n)
        if case % 2:
            q_list = [rng.dirichlet(np.ones(ky)) for _ in range(atoms)]
        else:
            q_list = [output_distribution(InputDist(comp.fractions), c) for c in mixed.components]
        gamma = float(rng.uniform(0.1, 0.3))
        z_grid = np.linspace(0.05, math.log(ky) + 1.0, 40)

        members = _ref_members(mixed, q_list, n)
        assert expurgated_space(mixed, q_list, n).member_mask == members
        report = decomposition_check(mixed, comp, q_list, n,
                                     SlackParams(eta=1.0, gamma_slack=gamma), z_grid)
        expected = _ref_failures(mixed, comp, q_list, n, gamma, z_grid, range(atoms))
        assert report.passed == (not expected)
        assert len(report.failures) == len(expected)
        for got, (inequality, atom, z, lhs, rhs) in zip(report.failures, expected):
            assert (got.inequality, got.atom, got.z) == (inequality, atom, z)
            assert abs(got.lhs - lhs) <= 1e-12 and abs(got.rhs - rhs) <= 1e-12
            assert not members[atom]
        seen_failures |= {f[0] for f in expected}
        seen_non_members += members.count(False)
    assert seen_failures == {"upper", "lower"} and seen_non_members > 0
