import numpy as np
import pytest

from mixcap import (
    CostSpec,
    Dmc,
    InputDist,
    MixedChannel,
    check_well_ordered,
    constrained_capacity,
    eps_capacity_well_ordered,
    mutual_information,
    more_capable,
    rate_quantile,
)
from conftest import bsc, bsc_capacity, z_channel_matching


def test_bsc_family_is_well_ordered():
    mix = MixedChannel(((0.5, bsc(0.05)), (0.5, bsc(0.2))))
    report = check_well_ordered(mix)
    assert report.is_well_ordered
    assert report.violations == ()
    assert "resolution" in report.coverage


def test_singleton_vacuously_well_ordered():
    report = check_well_ordered(MixedChannel.singleton(bsc(0.11)))
    assert report.is_well_ordered


def test_equal_capacity_bsc_z_pair_flagged():
    zch = z_channel_matching(bsc_capacity(0.11))
    pair = MixedChannel(((0.5, bsc(0.11)), (0.5, zch)))
    report = check_well_ordered(pair)
    assert not report.is_well_ordered
    assert len(report.violations) >= 1
    v = report.violations[0]
    assert "equal capacities" in v.required
    # the cited mutual information really does miss the shared capacity
    assert abs(v.observed_info - bsc_capacity(0.11)) > report.tolerance


def test_more_capable_examples():
    assert more_capable(bsc(0.2), bsc(0.05))
    assert more_capable(bsc(0.2), bsc(0.2))
    assert not more_capable(bsc(0.05), bsc(0.2))
    with pytest.raises(ValueError):
        more_capable(bsc(0.1), Dmc([[0.2, 0.3, 0.5], [0.5, 0.3, 0.2]]))


def test_more_capable_transitive_on_grid():
    chain = [bsc(0.3), bsc(0.2), bsc(0.1)]
    assert more_capable(chain[0], chain[1])
    assert more_capable(chain[1], chain[2])
    assert more_capable(chain[0], chain[2])


def test_capacity_spectrum_pair():
    mix = MixedChannel(((0.5, bsc(0.05)), (0.5, bsc(0.2))))
    spec = check_well_ordered(mix).capacity_spectrum
    assert len(spec) == 2
    assert spec[0][0] == pytest.approx(bsc_capacity(0.2), abs=1e-9)
    assert spec[1][0] == pytest.approx(bsc_capacity(0.05), abs=1e-9)
    assert spec[0][1] == pytest.approx(0.5)


def test_capacity_spectrum_singleton_and_merge():
    single = check_well_ordered(MixedChannel.singleton(bsc(0.11))).capacity_spectrum
    assert len(single) == 1 and single[0][1] == pytest.approx(1.0)
    dup = MixedChannel(((0.3, bsc(0.11)), (0.7, bsc(0.11))))
    merged = check_well_ordered(dup).capacity_spectrum
    assert len(merged) == 1
    assert merged[0][1] == pytest.approx(1.0)


def test_infeasible_gamma_rejected():
    mix = MixedChannel.singleton(bsc(0.11))
    with pytest.raises(ValueError):
        check_well_ordered(mix, CostSpec([1.0, 0.5], gamma=0.2))


def test_capacity_quantile_dominates_information_quantile():
    # on a verified family, the capacity-quantile value dominates the
    # information-quantile at every representative of the best component
    mix = MixedChannel(((0.3, bsc(0.05)), (0.3, bsc(0.11)), (0.4, bsc(0.2))))
    report = check_well_ordered(mix)
    assert report.is_well_ordered
    for eps in (0.0, 0.3, 0.55, 0.9):
        res = eps_capacity_well_ordered(mix, eps=eps)
        q = rate_quantile(mix, res.argmax_input, eps)
        assert res.capacity >= q - report.tolerance
