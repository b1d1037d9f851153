import os

import numpy as np
import pytest

from mixcap import (
    CostSpec,
    Dmc,
    InputDist,
    MixedChannel,
    NotWellOrderedError,
    check_well_ordered,
    constrained_capacity,
    eps_capacity_well_ordered,
    mutual_information,
    rate_quantile,
)
from mixcap.cli import load_spec
from conftest import bsc, bsc_capacity, random_dmc, z_channel_matching

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def test_bsc_family_is_well_ordered():
    mix = MixedChannel(((0.5, bsc(0.05)), (0.5, bsc(0.2))))
    report = check_well_ordered(mix)
    assert report.is_well_ordered
    assert report.violations == ()
    assert report.coverage.startswith("checked 2 vertices") and "certifies" in report.coverage


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


def test_equal_capacity_violation_at_a_face_vertex_caught():
    """A violation only near one vertex of an optimal face that no grid point touches.

    Rows 0-2 of the first component are one letter, so its optimal inputs form
    a face whose vertices put all of that letter's mass a* ~ 0.523 on one row.
    The second component degrades row 1 inside the segment to row 3: equal
    capacity, and I falls short of it by ~1.3e-3 at the vertex on row 1 but
    by less than the 1e-3 tolerance wherever row 1 carries at most 0.6 of the
    mass a*, so random points of the face rarely show it.  A tolerance of 1e-3
    keeps the degraded row's Kuhn-Tucker gap wide enough for a fast capacity
    solve.
    """
    r, s, r_worse = [0.9, 0.1], [0.25, 0.75], [0.8986, 0.1014]
    first, second = Dmc([r, r, r, s]), Dmc([r, r_worse, r, s])
    report = check_well_ordered(MixedChannel(((0.5, first), (0.5, second))), tol=1e-3)
    assert not report.is_well_ordered
    assert len(report.rep_sets[0].representatives) == 3
    (v,) = report.violations
    assert (v.theta, v.theta_prime) == (0, 1) and "equal capacities" in v.required
    assert v.rep_input.probs[[0, 2]].tolist() == [0.0, 0.0]
    cap = report.rep_sets[0].solve.capacity
    assert cap - v.observed_info == pytest.approx(1.338e-3, abs=1e-5)


def test_equal_capacity_violation_at_a_budget_cut_vertex_caught():
    """A violation at a vertex that only the slack budget puts on the optimal face.

    Rows 0 and 1 of the first component are one letter carrying mass a* ~ 0.523,
    and letter 1 costs 1 against a budget of 0.3.  The budget does not bind at
    the solver optimum (multiplier 0) but cuts the face PW = q*: its vertices
    are (a*, 0, 1 - a*) and (a* - 0.3, 0.3, 1 - a*), the latter on the budget
    boundary.  The second component degrades row 1, so the ordering fails
    only away from the first vertex.
    """
    r, s = [0.9, 0.1], [0.25, 0.75]
    first, second = Dmc([r, r, s]), Dmc([r, [0.85, 0.15], s])
    cost = CostSpec(np.array([0.0, 1.0, 0.0]), 0.3)
    report = check_well_ordered(MixedChannel(((0.5, first), (0.5, second))), cost)
    assert report.rep_sets[0].solve.multiplier == 0.0
    a_star = report.rep_sets[0].solve.optimal_input.probs[:2].sum()
    vertices = sorted(tuple(p.probs) for p in report.rep_sets[0].representatives)
    assert np.allclose(vertices, [(a_star - 0.3, 0.3, 1 - a_star), (a_star, 0.0, 1 - a_star)],
                       atol=1e-12)
    assert not report.is_well_ordered
    (v,) = report.violations
    assert (v.theta, v.theta_prime) == (0, 1) and "equal capacities" in v.required
    assert v.rep_input.probs[1] == pytest.approx(0.3, abs=1e-12)


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


def test_capacity_quantile_without_optima_runs_the_check():
    """zbsc fails the ordering check; its capacity quantile at eps 0.3, 0.346631843641,
    lies above the general path's certified upper bound 0.344764817539."""
    mix, cost = load_spec(os.path.join(GOLDEN, "zbsc.json"))
    with pytest.raises(NotWellOrderedError):
        eps_capacity_well_ordered(mix, cost, eps=0.3)


def pair_loop_violations(mixed, report, tol):
    """The pair loop the ordering check once ran: I(p, W_j) per ordered pair (i, j) at
    each vertex p of component i, with violations in (i, vertex, j) order."""
    caps = [rs.solve.capacity for rs in report.rep_sets]
    found = []
    for i, rs in enumerate(report.rep_sets):
        for p in rs.representatives:
            for j, comp in enumerate(mixed.components):
                if j == i:
                    continue
                info = mutual_information(p, comp)
                if abs(caps[i] - caps[j]) <= tol:
                    if abs(info - caps[i]) > tol:
                        found.append((i, j, p, info,
                                      f"|I - {caps[i]:.9g}| <= {tol:g} (equal capacities)"))
                elif caps[i] < caps[j] - tol:
                    if not info > caps[i] + tol:
                        found.append((i, j, p, info,
                                      f"I > {caps[i]:.9g} + {tol:g} (larger capacity)"))
    return found


def test_violations_match_the_pair_loop():
    """Random 2-3 input families of 2-6 atoms, half of them with a relabelled copy of an
    atom (equal capacity, other optimal input): the masked check reports exactly the
    pair loop's violations, in its order, at a strict and at a loose tolerance."""
    kinds = []
    for seed in range(12):
        rng = np.random.default_rng(seed)
        kx, k = int(rng.integers(2, 4)), int(rng.integers(2, 7))
        comps = [random_dmc(rng, kx, 3) for _ in range(k)]
        if seed % 2:
            comps[-1] = Dmc(comps[0].rows[::-1])
        mixed = MixedChannel(tuple(zip(np.full(k, 1.0 / k), comps)))
        for tol in (1e-7, 0.05):
            report = check_well_ordered(mixed, tol=tol)
            assert [tuple(v) for v in report.violations] == pair_loop_violations(mixed, report,
                                                                                 tol)
            kinds += [v.required.split("(")[-1] for v in report.violations]
    assert {"equal capacities)", "larger capacity)"} <= set(kinds)
