"""Byte-identity regression: fixed CLI invocations against stored primary outputs.

The expected files under ``golden/`` are the CSV outputs of these argument
lists on small specs.  A refactor that keeps the arithmetic must reproduce
them byte for byte; an intended change of output regenerates the file and
says why.  Mixture Monte-Carlo runs are left out: their streams are not part
of the contract this test pins.
"""

import os
import subprocess
import sys

import pytest

from mixcap.cli import run_command

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _fbl(spec, n, rate, bound, *extra):
    return ["fbl", spec, "--n", str(n), "--rate", str(rate), "--bound", bound, *extra]


CASES = {
    "capacity-cost2": ["capacity", "cost2.json"],
    "capacity-cost3": ["capacity", "cost3.json"],
    "eps-capacity-bsc3": ["eps-capacity", "bsc3.json", "--eps", "0.35"],
    "eps-capacity-bsc3-wo": ["eps-capacity", "bsc3.json", "--eps", "0.35", "--well-ordered"],
    "eps-capacity-mix2x2": ["eps-capacity", "mix2x2.json", "--eps", "0.3"],
    "eps-capacity-cost3": ["eps-capacity", "cost3.json", "--eps", "0.3"],
    "eps-capacity-cost3-wo": ["eps-capacity", "cost3.json", "--eps", "0.3", "--well-ordered"],
    "eps-capacity-multi5": ["eps-capacity", "multi5.json", "--eps", "0.3"],
    "second-order-bsc3": ["second-order", "bsc3.json", "--eps", "0.35"],
    "second-order-bsc3-wo": ["second-order", "bsc3.json", "--eps", "0.35", "--well-ordered"],
    "second-order-mix2x2": ["second-order", "mix2x2.json", "--eps", "0.3"],
    "second-order-cost3": ["second-order", "cost3.json", "--eps", "0.3"],
    "second-order-cost3-wo": ["second-order", "cost3.json", "--eps", "0.3", "--well-ordered"],
    "second-order-multi5": ["second-order", "multi5.json", "--eps", "0.3"],
    "second-order-bsc3-rate-low": ["second-order", "bsc3.json", "--eps", "0.35",
                                   "--rate", "0.01"],
    "second-order-bsc3-rate-high": ["second-order", "bsc3.json", "--eps", "0.35",
                                    "--rate", "0.9"],
    "check-well-ordered-cost2": ["check-well-ordered", "cost2.json"],
    # pinned4.json pins the budget at two zero-cost letters; binding3.json binds it on 3 inputs
    "capacity-pinned4": ["capacity", "pinned4.json"],
    "check-well-ordered-pinned4": ["check-well-ordered", "pinned4.json"],
    "eps-capacity-pinned4": ["eps-capacity", "pinned4.json", "--eps", "0.3"],
    # pinnedinf.json pins it where a dearer letter reaches an output the cheap ones miss
    "capacity-pinnedinf": ["capacity", "pinnedinf.json"],
    "eps-capacity-pinnedinf": ["eps-capacity", "pinnedinf.json", "--eps", "0.3"],
    "capacity-binding3": ["capacity", "binding3.json"],
    "check-well-ordered-binding3": ["check-well-ordered", "binding3.json"],
    "eps-capacity-binding3": ["eps-capacity", "binding3.json", "--eps", "0.3"],
    "check-well-ordered-zbsc": ["check-well-ordered", "zbsc.json"],
    # near-degenerate faces: a near-duplicate row, a letter 1.2e-5 below the Kuhn-Tucker
    # level under a binding budget, and a budget 1e-9 above the cheapest cost
    "capacity-neardup4": ["capacity", "neardup4.json"],
    "check-well-ordered-neardup4": ["check-well-ordered", "neardup4.json"],
    "capacity-slowletter3": ["capacity", "slowletter3.json"],
    "check-well-ordered-lowbudget3": ["check-well-ordered", "lowbudget3.json"],
    "fbl-feinstein-bsc3": _fbl("bsc3.json", 100, 0.3, "feinstein"),
    "fbl-hn-bsc3": _fbl("bsc3.json", 100, 0.3, "hn"),
    "fbl-mixed-converse-bsc3": _fbl("bsc3.json", 100, 0.3, "mixed-converse"),
    "fbl-exact-bsc3": _fbl("bsc3.json", 100, 0.3, "exact"),
    "fbl-feinstein-mix2x2": _fbl("mix2x2.json", 24, 0.02, "feinstein"),
    "fbl-hn-mix2x2": _fbl("mix2x2.json", 24, 0.45, "hn"),
    "fbl-mixed-converse-mix2x2": _fbl("mix2x2.json", 24, 0.25, "mixed-converse"),
    "fbl-exact-mix2x2": _fbl("mix2x2.json", 24, 0.25, "exact"),
    "fbl-feinstein-bsc1-mc": _fbl("bsc1.json", 100, 0.3, "feinstein",
                                  "--mc", "--trials", "20000", "--seed", "5"),
    "validate-lemmas-mix2x2": ["validate-lemmas", "mix2x2.json", "--n", "6"],
    "validate-lemmas-cost3": ["validate-lemmas", "cost3.json", "--n", "6", "10"],
    # zbsc.json has a component with zero entries: the densities' -inf cells
    "capacity-zbsc": ["capacity", "zbsc.json"],
    "second-order-zbsc": ["second-order", "zbsc.json", "--eps", "0.3"],
    "fbl-feinstein-zbsc": _fbl("zbsc.json", 60, 0.15, "feinstein"),
    "fbl-hn-zbsc": _fbl("zbsc.json", 60, 0.4, "hn"),
    "fbl-mixed-converse-zbsc": _fbl("zbsc.json", 60, 0.3, "mixed-converse"),
    "fbl-exact-zbsc": _fbl("zbsc.json", 60, 0.3, "exact"),
    "validate-lemmas-zbsc": ["validate-lemmas", "zbsc.json", "--n", "6", "10"],
}


def resolve(argv):
    return [os.path.join(GOLDEN, a) if a.endswith(".json") else a for a in argv]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    code, out, _ = run_command(resolve(CASES[name]))
    assert code == 0
    with open(os.path.join(GOLDEN, name + ".csv"), encoding="utf-8") as fh:
        assert out == fh.read()


# Cases whose numbers pass through BLAS products (count tables times letter values
# or log tables), run the way a user runs them: a fresh process, where mixcap is
# what loads numpy and so sets its BLAS thread count.
SUBPROCESS_CASES = ["fbl-exact-bsc3", "fbl-exact-zbsc", "validate-lemmas-cost3",
                    "eps-capacity-multi5", "second-order-cost3"]


@pytest.mark.parametrize("preset, unset", [
    ({}, ()),
    ({"OPENBLAS_NUM_THREADS": "2"}, ()),
    ({}, ("PYTHONUNBUFFERED",)),
], ids=["default", "openblas-2", "buffered"])
@pytest.mark.parametrize("name", SUBPROCESS_CASES)
def test_golden_output_as_subprocess(name, preset, unset):
    """The output bytes do not depend on how many threads BLAS runs, nor on whether
    stdout is buffered (the process must flush it before it exits without teardown)."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", *unset)}
    env.update(preset, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "mixcap.cli", *resolve(CASES[name])],
                          capture_output=True, env=env, check=True)
    with open(os.path.join(GOLDEN, name + ".csv"), "rb") as fh:
        assert proc.stdout == fh.read()
