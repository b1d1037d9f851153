"""Byte-identity regression: fixed CLI invocations against stored primary outputs.

The expected files under ``golden/`` are the CSV outputs of these argument
lists on small specs.  A refactor that keeps the arithmetic must reproduce
them byte for byte; an intended change of output regenerates the file and
says why.  Mixture Monte-Carlo runs are left out: their streams are not part
of the contract this test pins.
"""

import os

import pytest

from mixcap.cli import run_command

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


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
    "check-well-ordered-zbsc": ["check-well-ordered", "zbsc.json"],
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
    # zbsc.json has a component with zero entries: the densities' -inf cells
    "capacity-zbsc": ["capacity", "zbsc.json"],
    "second-order-zbsc": ["second-order", "zbsc.json", "--eps", "0.3"],
    "fbl-feinstein-zbsc": _fbl("zbsc.json", 60, 0.15, "feinstein"),
    "fbl-hn-zbsc": _fbl("zbsc.json", 60, 0.4, "hn"),
    "fbl-mixed-converse-zbsc": _fbl("zbsc.json", 60, 0.3, "mixed-converse"),
    "fbl-exact-zbsc": _fbl("zbsc.json", 60, 0.3, "exact"),
}


def resolve(argv):
    return [os.path.join(GOLDEN, a) if a.endswith(".json") else a for a in argv]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    code, out, _ = run_command(resolve(CASES[name]))
    assert code == 0
    with open(os.path.join(GOLDEN, name + ".csv"), encoding="utf-8") as fh:
        assert out == fh.read()
