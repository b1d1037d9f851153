"""What a fresh mixcap process imports.

Every CLI job is a new interpreter, so each module the package loads is paid
for by every job.  The layer modules stay eager: perfbench/tracer.py wraps
the functions it finds in sys.modules right after ``import mixcap.cli``.
Three imports stay out: ``dataclasses``, whose decorator generates and compiles
code for every record type on each import; ``numpy.ma``, which numpy 2.x
loads from ``np.unique`` when it is asked for the unique values alone; and
``concurrent.futures``, whose thread pool only Monte-Carlo tails use.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")
LAYERS = ("mixcap.channel", "mixcap.first_order", "mixcap.second_order", "mixcap.optimizer",
          "mixcap.well_ordered", "mixcap.spectrum", "mixcap.types_toolkit")
RUNS = (
    ["eps-capacity", os.path.join(GOLDEN, "binding3.json"), "--eps", "0.3"],
    ["second-order", os.path.join(GOLDEN, "cost3.json"), "--eps", "0.3"],
    ["check-well-ordered", os.path.join(GOLDEN, "pinned4.json")],
    ["fbl", os.path.join(GOLDEN, "mix2x2.json"), "--n", "24", "--rate", "0.02",
     "--bound", "exact"],
    ["fbl", os.path.join(GOLDEN, "mix2x2.json"), "--n", "200", "--rate", "0.1",
     "--bound", "feinstein", "--trials", "4000", "--mc", "--threads", "1"],
    ["validate-lemmas", os.path.join(GOLDEN, "mix2x2.json"), "--n", "6", "8"],
)
# prints, after the import and after the runs, which watched modules are loaded
SCRIPT = """
import sys
import mixcap.cli
WATCHED = {watched!r}
print(*(m for m in WATCHED if m in sys.modules))
for argv in {runs!r}:
    assert mixcap.cli.main(argv) == 0, argv
print(*(m for m in WATCHED if m in sys.modules))
"""


@pytest.fixture(scope="module")
def loaded():
    """The watched modules loaded after ``import mixcap.cli``, and after the RUNS."""
    watched = LAYERS + ("dataclasses", "numpy.ma", "concurrent.futures")
    env = dict(os.environ, PYTHONPATH=SRC)
    lines = subprocess.run([sys.executable, "-c", SCRIPT.format(watched=watched, runs=RUNS)],
                           capture_output=True, text=True, env=env, check=True).stdout.splitlines()
    return {"import": set(lines[0].split()), "runs": set(lines[-1].split())}


def test_import_loads_every_layer(loaded):
    """The tracer's contract: each layer module is in sys.modules after the import."""
    assert set(LAYERS) <= loaded["import"]


def test_import_leaves_dataclasses_unloaded(loaded):
    assert "dataclasses" not in loaded["import"]


def test_commands_leave_numpy_ma_unloaded(loaded):
    assert "numpy.ma" not in loaded["runs"]


def test_thread_pool_stays_unloaded_off_the_monte_carlo_path(loaded):
    assert "concurrent.futures" not in loaded["import"] | loaded["runs"]


def test_every_traced_function_lives_in_its_layer():
    """The tracer's other contract: each name its LAYERS table lists is an attribute of
    ``mixcap.<layer>``, so moving a traced function fails here, not only under --trace."""
    tracer = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    (table,) = [node.value for node in ast.parse(tracer.read_text(encoding="utf-8")).body
                if isinstance(node, ast.Assign) and node.targets[0].id == "LAYERS"]
    layers = ast.literal_eval(table)
    assert {f"mixcap.{layer}" for layer in layers} == set(LAYERS) | {"mixcap.cli"}
    missing = [f"{layer}.{name}" for layer, names in layers.items() for name in names
               if not hasattr(importlib.import_module(f"mixcap.{layer}"), name)]
    assert not missing
