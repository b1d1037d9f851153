"""Seeded spec files and job lists for the benchmark workloads.

Only the workload seed decides what is generated; the program under test
sees nothing but the spec files and the command lines.  Every generator
writes probability vectors with the last entry set to 1 - sum(rest), so each
file passes the CLI's 1e-12 sum check exactly as written, and every job is
steered onto its intended code path for any seed (see the rejection loops).

Each spec is a fixed anchor drawn from ANCHOR_SEED and jittered by the seed.
The search and solver paths are chaotic in their inputs (solver iterations
scale like 1 / (C - D_x) for letters the optimum leaves unused), so fully
random specs made job cost vary 30-40% between seeds; the anchors keep the
work comparable while every seed still gets its own inputs.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field

import numpy as np

from reference import (
    Spec,
    blahut_arimoto,
    fbl_gap,
    fbl_value,
    mutual_information,
    row_divergences,
)

# Each workload runs the job lists of its parts, one after another.  The
# parts keep their own anchors and seed streams, so a part generates the same
# specs whichever workload runs it.
PARTS = ("search", "ordered", "fbl_exact", "fbl_mc")
WORKLOADS = {"solve": ("search", "ordered"), "fbl": ("fbl_exact", "fbl_mc")}
FBL_BOUNDS = ("feinstein", "hn", "mixed-converse", "exact")


@dataclass
class Job:
    """One CLI invocation with what its output check needs."""

    name: str
    argv: list
    kind: str                  # which check applies (see checks.py)
    spec: str                  # spec file path, relative to the checkout root
    expect_exit: int = 0
    params: dict = field(default_factory=dict)


ANCHOR_SEED = 150105887
JITTER = 0.002  # relative jitter of each probability (and eps) by the seed


def _fix(v) -> list:
    head = [float(x) for x in v[:-1]]
    return head + [1.0 - sum(head)]


def _simplex(rng, k: int, floor: float) -> np.ndarray:
    return rng.dirichlet(np.ones(k)) * (1.0 - floor * k) + floor


def _jitter(rng, v) -> list:
    """Each entry scaled by 1 + U(-JITTER, JITTER), renormalized, written exactly."""
    v = np.asarray(v, dtype=float) * (1.0 + rng.uniform(-JITTER, JITTER, len(v)))
    return _fix(v / v.sum())


def _atoms(weights, mats) -> list:
    return [{"weight": w, "rows": m} for w, m in zip(weights, mats)]


def random_mixture(anchor, rng, k: int, atoms: int) -> dict:
    """Random k-by-k components with rows bounded away from zero."""
    mats = [[_jitter(rng, _simplex(anchor, k, 0.03)) for _ in range(k)] for _ in range(atoms)]
    return {"num_inputs": k, "num_outputs": k,
            "atoms": _atoms(_jitter(rng, _simplex(anchor, atoms, 0.1)), mats)}


def _symmetric(m: int, delta: float) -> np.ndarray:
    return (1.0 - delta) * np.eye(m) + delta / m


def degraded_family(anchor, rng, k: int, deltas) -> dict:
    """Base channel composed with increasingly noisy m-ary symmetric channels.

    W_j = W_0 S(delta_j) with delta_j increasing, so each component is a
    degraded version of the previous one and the family is capacity-ordered.
    The base is a noisy permutation, which keeps the capacities well apart.
    The budget is set between the largest expected cost of a component's
    unconstrained optimum and the dearest letter, so it is carried through
    every solve without binding.
    """
    perm = np.eye(k)[anchor.permutation(k)]
    base = 0.55 * perm + 0.45 * np.array([_simplex(anchor, k, 0.02) for _ in range(k)])
    base = np.array([_jitter(rng, row) for row in base])
    mats = [[_fix(row) for row in base @ _symmetric(k, d)] for d in deltas]
    costs = np.array([0.0] + [float(c) for c in anchor.uniform(0.2, 1.0, k - 1)])
    anchor.shuffle(costs)
    spend = max(float(blahut_arimoto(np.array(m)).p @ costs) for m in mats)
    gamma = spend + 0.5 * (costs.max() - spend)
    return {"num_inputs": k, "num_outputs": k, "cost": [float(c) for c in costs],
            "gamma": float(gamma),
            "atoms": _atoms(_jitter(rng, _simplex(anchor, len(deltas), 0.15)), mats)}


def not_ordered(anchor, rng, k: int) -> dict:
    """Two components with equal capacity whose optimal inputs differ.

    The second is the first with input letters 0 and 1 swapped, so the
    capacities agree but I(P*, W_2) falls short of the capacity by more than
    1e-3 at the first component's optimum: a genuine ordering violation.
    """
    rows = [_simplex(anchor, k, 0.03) for _ in range(k)]
    while True:
        mats = [_jitter(rng, r) for r in rows]
        w = np.array(mats)
        br = blahut_arimoto(w)
        if br.lo - mutual_information(br.p, w[[1, 0] + list(range(2, k))]) > 1e-3:
            break
        rows = [_simplex(rng, k, 0.03) for _ in range(k)]
    rows2 = [mats[1], mats[0]] + mats[2:]
    return {"num_inputs": k, "num_outputs": k,
            "atoms": _atoms(_jitter(rng, _simplex(anchor, 2, 0.2)), [mats, rows2])}


def bsc_family(anchor, rng, atoms: int) -> dict:
    """BSC mixture through the spec's generator block, crossover ascending."""
    ps = np.sort(anchor.uniform(0.03, 0.3, atoms))
    while atoms > 1 and min(np.diff(ps)) < 0.03:
        ps = np.sort(anchor.uniform(0.03, 0.3, atoms))
    ps = [float(p * (1.0 + rng.uniform(-JITTER, JITTER))) for p in ps]
    weights = _jitter(rng, _simplex(anchor, atoms, 0.15))
    return {"generator": {"family": "bsc",
                          "params": [{"p": p, "weight": w} for p, w in zip(ps, weights)]}}


def random_2x2(anchor, rng, atoms: int) -> dict:
    """Random binary channels scattered around a random asymmetric one.

    Components close to each other keep the mixture surrogates (max-envelope
    references) within a few eta of each other, so that each bound has rates
    inside (0, 1).  Redrawn until every per-letter density is distinct.
    """
    a, b = anchor.uniform(0.05, 0.25, 2)
    shifts = anchor.uniform(-0.03, 0.03, (atoms, 2))
    weights = _simplex(anchor, atoms, 0.2)
    while True:
        mats = []
        for da, db in shifts:
            x = float((a + da) * (1.0 + rng.uniform(-JITTER, JITTER)))
            y = float((b + db) * (1.0 + rng.uniform(-JITTER, JITTER)))
            mats.append([[1.0 - x, x], [y, 1.0 - y]])
        doc = {"num_inputs": 2, "num_outputs": 2, "atoms": _atoms(_jitter(rng, weights), mats)}
        if _distinct_letters(doc):
            return doc


def pick_rate(rng, doc: dict, n: int, bound: str, lo: float = 0.05, hi: float = 0.95,
              min_gap: float = 1e-6):
    """A positive rate at which the bound lies in [lo, hi], or None.

    Candidates sweep the component informations; each is also kept away from
    the atoms of every tail so that the 1e-9 boundary rule cannot decide a
    comparison.  The choice among the admissible rates is seeded.
    """
    spec = Spec(doc)
    p = np.full(spec.num_inputs, 1.0 / spec.num_inputs)
    infos = [mutual_information(p, m) for m in spec.mats]
    laws: dict = {}
    ok = []
    for r in np.linspace(min(infos) - 0.4, max(infos) + 0.4, 81):
        r = float(r)
        if r > 0 and lo <= fbl_value(spec, p, n, r, bound, laws) <= hi and (
                fbl_gap(spec, p, n, r, bound, laws) > min_gap):
            ok.append(r)
    if not ok:
        return None
    return ok[int(rng.integers(len(ok)))]


def _write(root: str, name: str, doc: dict) -> str:
    path = os.path.join(root, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _draw(anchor, rng, make, accept):
    """A spec make(anchor, rng) that passes accept(doc, strict=False).

    The anchor is chosen without the seed: anchors are drawn until one passes
    the strict form of the test under a fixed jitter.  The seed's jitters of
    that anchor are then drawn until one passes.  Returns (doc, result).
    """
    fixed = np.random.default_rng(ANCHOR_SEED)
    while True:
        state = anchor.bit_generator.state
        if accept(make(anchor, fixed), strict=True) is not None:
            break
    while True:
        anchor.bit_generator.state = state
        doc = make(anchor, rng)
        result = accept(doc, strict=False)
        if result is not None:
            return doc, result


def _fbl_spec(anchor, rng, make, n: int, bounds):
    """A spec and, per bound, a rate that puts the bound inside (0, 1)."""
    def rates(doc, strict):
        lo, hi = (0.1, 0.9) if strict else (0.05, 0.95)
        out = {b: pick_rate(rng, doc, n, b, lo, hi) for b in bounds}
        return None if None in out.values() else out
    return _draw(anchor, rng, make, rates)


def well_conditioned(doc: dict, strict: bool):
    """True (or None) when every component's capacity solve converges fast.

    Blahut-Arimoto needs about 20 / (C - D_x) iterations to starve a letter x
    that the optimum leaves unused, so nearby channels can differ a
    hundredfold in solver work.  Accepted specs use each letter with mass at
    least 0.02 or keep D_x at least 0.05 below the capacity (twice that for
    an anchor).
    """
    margin, min_mass = (0.1, 0.04) if strict else (0.05, 0.02)
    for m in Spec(doc).mats:
        br = blahut_arimoto(m, tol=1e-9, max_iter=5000)
        d = row_divergences(m, br.p @ m)
        if br.hi - br.lo > 1e-9 or np.any((br.p < min_mass) & (d > br.lo - margin)):
            return None
    return True


def _distinct_letters(doc: dict, min_sep: float = 1e-6) -> bool:
    """True when every component's per-letter densities are pairwise distinct.

    Distinct values keep the n-fold convolution from merging atoms, so the
    atom count (and with it PAIR_CAP) depends on n alone.
    """
    spec = Spec(doc)
    p = np.full(spec.num_inputs, 1.0 / spec.num_inputs)
    for m in spec.mats:
        q = p @ m
        vals = np.sort((np.log(m) - np.log(q)[None, :]).ravel())
        if np.min(np.diff(vals)) < min_sep:
            return False
    return True


def _anchor(workload: str, tag: str):
    """The fixed generator of one spec's anchor (the same for every seed)."""
    return np.random.default_rng([ANCHOR_SEED, zlib.crc32(f"{workload}/{tag}".encode())])


def build(workload: str, seed: int, root: str) -> list:
    """Write the workload's spec files under ``root``; return its job list.

    Each spec is a fixed anchor drawn from ANCHOR_SEED and jittered by the
    workload seed (JITTER relative on every probability), so runs on
    different seeds do comparable work on different inputs.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(root, exist_ok=True)
    jobs = []
    for part in WORKLOADS[workload]:
        rng = np.random.default_rng([seed, PARTS.index(part)])
        make = globals()[f"_jobs_{part}"]
        jobs += make(lambda tag, part=part: _anchor(part, tag), rng, root)
    return jobs


def _jobs_search(anchor, rng, root):
    jobs = []
    for tag, k, grid in (("s3a", 3, 32), ("s3b", 3, 32), ("s4", 4, 16)):
        a = anchor(tag)
        doc, _ = _draw(a, rng, lambda a_, r: random_mixture(a_, r, k, 3), well_conditioned)
        path = _write(root, f"{tag}.json", doc)
        eps = round(float(a.uniform(0.05, 0.6) * (1.0 + rng.uniform(-JITTER, JITTER))), 4)
        common = [path, "--eps", repr(eps), "--grid", str(grid)]
        jobs.append(Job(f"eps-capacity:{tag}", ["eps-capacity"] + common, "eps_lb",
                        path, params={"eps": eps}))
        jobs.append(Job(f"second-order:{tag}", ["second-order"] + common, "so_lb",
                        path, params={"eps": eps}))
    return jobs


def _ordered_eps(anchor, rng, doc: dict) -> float:
    """eps strictly inside the weight of one component, by capacity order."""
    spec = Spec(doc)
    order = np.argsort([blahut_arimoto(m).lo for m in spec.mats])
    pick = int(anchor.integers(len(order)))
    below = float(sum(spec.weights[i] for i in order[:pick]))
    return round(below + float(rng.uniform(0.3, 0.7)) * float(spec.weights[order[pick]]), 4)


def _jobs_ordered(anchor, rng, root):
    a3, a4 = anchor("o3"), anchor("o4")
    deltas = (0.0, 0.12, 0.3)
    doc3, _ = _draw(a3, rng, lambda a, r: degraded_family(a, r, 3, deltas), well_conditioned)
    doc4, _ = _draw(a4, rng, lambda a, r: degraded_family(a, r, 4, deltas), well_conditioned)
    eps3 = _ordered_eps(a3, rng, doc3)
    o3, o4 = _write(root, "o3.json", doc3), _write(root, "o4.json", doc4)
    bsc = _write(root, "obsc.json", bsc_family(anchor("obsc"), rng, 3))
    bad = _write(root, "xorder.json", not_ordered(anchor("xorder"), rng, 3))
    return [
        Job("capacity:obsc", ["capacity", bsc], "capacity", bsc),
        Job("capacity:o4", ["capacity", o4], "capacity", o4),
        Job("check-well-ordered:o4", ["check-well-ordered", o4], "ordered_check", o4,
            params={"expect": 1}),
        Job("eps-capacity-wo:o3", ["eps-capacity", o3, "--eps", repr(eps3), "--well-ordered"],
            "eps_wo", o3, params={"eps": eps3}),
        Job("second-order-wo:o3", ["second-order", o3, "--eps", repr(eps3), "--well-ordered"],
            "so_wo", o3, params={"eps": eps3}),
        Job("eps-capacity-wo:xorder", ["eps-capacity", bad, "--eps", "0.3", "--well-ordered"],
            "refused", bad, expect_exit=2),
    ]


def _fbl_jobs(path, tag, n, rates, kind, extra=()):
    return [Job(f"fbl-{b}:{tag}",
                ["fbl", path, "--n", str(n), "--rate", repr(r), "--bound", b, *extra],
                kind, path, params={"n": n, "rate": r, "bound": b})
            for b, r in rates.items()]


def _jobs_fbl_exact(anchor, rng, root):
    doc, rates = _fbl_spec(anchor("fbsc"), rng, lambda a, r: bsc_family(a, r, 3), 300, FBL_BOUNDS)
    bsc = _write(root, "fbsc.json", doc)
    doc, rates2 = _fbl_spec(anchor("f2x2"), rng, lambda a, r: random_2x2(a, r, 2), 40, FBL_BOUNDS)
    mix = _write(root, "f2x2.json", doc)
    return (_fbl_jobs(bsc, "bsc", 300, rates, "fbl") + _fbl_jobs(mix, "2x2", 40, rates2, "fbl")
            + [Job("validate-lemmas:2x2", ["validate-lemmas", mix, "--n", "8", "12"],
                   "lemmas", mix, params={"n": [8, 12]})])


def _jobs_fbl_mc(anchor, rng, root):
    mc_bounds = ("feinstein", "hn", "mixed-converse")
    fseed = int(rng.integers(1, 2**31))
    doc, rates = _fbl_spec(anchor("m2x2"), rng, lambda a, r: random_2x2(a, r, 2), 100, mc_bounds)
    mix = _write(root, "m2x2.json", doc)
    jobs = _fbl_jobs(mix, "2x2-mc", 100, rates, "fbl_mc",
                     ("--trials", "40000", "--seed", str(fseed)))
    doc, rates = _fbl_spec(anchor("mbsc"), rng, lambda a, r: bsc_family(a, r, 1), 200, ("feinstein",))
    path = _write(root, "mbsc.json", doc)
    for threads in (1, 2):
        (job,) = _fbl_jobs(path, f"bsc-mc-t{threads}", 200, rates, "fbl_mc",
                           ("--mc", "--trials", "150000", "--seed", str(fseed),
                            "--threads", str(threads)))
        job.params["same_as_prev"] = threads == 2
        jobs.append(job)
    for job in jobs:
        job.params["trials"] = int(job.argv[job.argv.index("--trials") + 1])
    return jobs
