import contextlib
import io
import json
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixcap.optimizer
from mixcap.cli import load_spec, main, run_command
from conftest import bsc_capacity, z_channel_matching

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def pair_spec(tmp_path):
    return write_spec(tmp_path, {
        "num_inputs": 2,
        "num_outputs": 2,
        "generator": {"family": "bsc",
                      "params": [{"p": 0.05, "weight": 0.5}, {"p": 0.2, "weight": 0.5}]},
    })


def test_load_spec_two_atom_file(tmp_path):
    path = write_spec(tmp_path, {
        "atoms": [
            {"weight": 0.25, "rows": [[0.9, 0.1], [0.1, 0.9]]},
            {"weight": 0.75, "rows": [[0.8, 0.2], [0.2, 0.8]]},
        ],
    })
    mixed, cost = load_spec(path)
    assert mixed.num_atoms == 2
    assert cost.gamma is None


def test_load_spec_rejects_bad_row(tmp_path):
    path = write_spec(tmp_path, {
        "atoms": [{"weight": 1.0, "rows": [[0.5, 0.49], [0.5, 0.5]]}],
    })
    with pytest.raises(ValueError, match=r"atoms\[0\].*row 0"):
        load_spec(path)


def test_load_spec_generator_expansion(tmp_path):
    path = write_spec(tmp_path, {
        "generator": {"family": "bsc", "params": [
            {"p": 0.05, "weight": 0.2}, {"p": 0.11, "weight": 0.3},
            {"p": 0.2, "weight": 0.5}]},
    })
    mixed, _ = load_spec(path)
    assert mixed.num_atoms == 3


def test_load_spec_weights_not_renormalized(tmp_path):
    path = write_spec(tmp_path, {
        "generator": {"family": "bsc", "params": [
            {"p": 0.05, "weight": 0.4}, {"p": 0.2, "weight": 0.5}]},
    })
    with pytest.raises(ValueError, match="sum"):
        load_spec(path)


def test_load_spec_cost_and_gamma(tmp_path):
    path = write_spec(tmp_path, {
        "cost": [1.0, 0.0],
        "gamma": 0.4,
        "atoms": [{"weight": 1.0, "rows": [[0.9, 0.1], [0.2, 0.8]]}],
    })
    _, cost = load_spec(path)
    assert cost.gamma == 0.4
    assert np.allclose(cost.costs, [1.0, 0.0])


def test_eps_capacity_csv_row(pair_spec, capsys):
    rc = main(["eps-capacity", pair_spec, "--eps", "0.25"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("quantity,value,units,method")
    fields = lines[1].split(",")
    assert fields[0] == "eps_capacity"
    assert float(fields[1]) == pytest.approx(bsc_capacity(0.2), abs=1e-6)
    assert fields[2] == "nats"


def test_well_ordered_flag_path(pair_spec, capsys):
    rc = main(["eps-capacity", pair_spec, "--eps", "0.75", "--well-ordered"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "exact-formula" in out


def test_second_order_refuses_unordered(tmp_path, capsys):
    zch = z_channel_matching(bsc_capacity(0.11))
    path = write_spec(tmp_path, {
        "atoms": [
            {"weight": 0.5, "rows": [[0.89, 0.11], [0.11, 0.89]]},
            {"weight": 0.5, "rows": [[float(zch.rows[0, 0]), float(zch.rows[0, 1])],
                                      [float(zch.rows[1, 0]), float(zch.rows[1, 1])]]},
        ],
    })
    rc = main(["second-order", path, "--eps", "0.3", "--well-ordered"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err


def test_fbl_deterministic_output(pair_spec, capsys):
    argv = ["fbl", pair_spec, "--n", "120", "--rate", "0.15",
            "--bound", "mixed-converse", "--seed", "7"]
    rc = main(argv)
    first = capsys.readouterr().out
    rc2 = main(argv)
    second = capsys.readouterr().out
    assert rc == rc2 == 0
    assert first == second


def test_fbl_threads_do_not_change_results(pair_spec, capsys):
    base = ["fbl", pair_spec, "--n", "60", "--rate", "0.2", "--bound", "feinstein",
            "--seed", "11", "--mc", "--trials", "20000"]
    assert main(base + ["--threads", "1"]) == 0
    one = capsys.readouterr().out
    assert main(base + ["--threads", "4"]) == 0
    four = capsys.readouterr().out
    assert ",mc," in one
    assert one == four


def test_json_format_and_infinity_serialization(tmp_path, capsys):
    path = write_spec(tmp_path, {
        "atoms": [{"weight": 1.0, "rows": [[0.89, 0.11], [0.11, 0.89]]}],
    })
    rc = main(["second-order", path, "--eps", "0.1", "--rate", "0.01", "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    row = doc["rows"][0]
    assert row["value"] == "+inf"
    assert row["units"] == "nats"
    assert doc["manifest"]["command"] == "second-order"


def test_missing_file_exit_code(capsys):
    assert main(["capacity", "/nonexistent/spec.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_out_file_with_manifest_sidecar(pair_spec, tmp_path, capsys):
    out = tmp_path / "result.csv"
    rc = main(["capacity", pair_spec, "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.startswith("quantity,")
    manifest = json.loads((tmp_path / "result.csv.manifest.json").read_text())
    assert manifest["command"] == "capacity"
    assert "wall_time_s" in manifest


def test_gamma_flags(tmp_path, capsys):
    path = write_spec(tmp_path, {
        "cost": [1.0, 0.0],
        "gamma": 0.1,
        "atoms": [{"weight": 1.0, "rows": [[0.89, 0.11], [0.11, 0.89]]}],
    })
    assert main(["capacity", path]) == 0
    constrained = capsys.readouterr().out
    assert main(["capacity", path, "--unconstrained"]) == 0
    free = capsys.readouterr().out
    val_c = float(constrained.splitlines()[1].split(",")[1])
    val_f = float(free.splitlines()[1].split(",")[1])
    assert val_c < val_f
    assert val_f == pytest.approx(bsc_capacity(0.11), abs=1e-9)


def test_validate_lemmas_command(pair_spec, capsys):
    rc = main(["validate-lemmas", pair_spec, "--n", "8", "--z-points", "10"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "expurgated_mass" in out
    assert "decomposition_pass,1" in out


ONE_ATOM = [{"weight": 1.0, "rows": [[0.9, 0.1], [0.2, 0.8]]}]

# malformed spec files, each run as "capacity {name}"
BAD_SPECS = {
    "cost": {"cost": 1.0, "atoms": ONE_ATOM},
    "gamma_list": {"cost": [0.0, 1.0], "gamma": [1], "atoms": ONE_ATOM},
    "gamma_bool": {"cost": [0.0, 1.0], "gamma": True, "atoms": ONE_ATOM},
    "params_entry": {"generator": {"family": "bsc", "params": [[0.1, 1.0]]}},
    "atoms_int": {"atoms": 5},
    "generator_list": {"generator": []},
    "params_int": {"generator": {"family": "bsc", "params": 5}},
    "num_inputs_list": {"num_inputs": [2], "atoms": ONE_ATOM},
}


@pytest.mark.parametrize("argv, names", [
    (["capacity", "{cost}"], "cost"),
    (["fbl", "{pair}", "--n", "0", "--rate", "0.1", "--bound", "feinstein"], "--n"),
    (["fbl", "{pair}", "--n", "-3", "--rate", "0.1", "--bound", "feinstein"], "--n"),
    (["validate-lemmas", "{pair}", "--n", "0"], "--n"),
    (["second-order", "{pair}", "--eps", "0.3", "--tie-tol", "-1"], "tie_tol"),
    (["capacity", "{pair}", "--threads", "0"], "--threads"),
    (["fbl", "{pair}", "--n", "20", "--rate", "0.1", "--bound", "exact", "--mc",
      "--trials", "100"], "--mc"),
    (["second-order", "{bsc3}", "--eps", "0.35", "--rate", "0.01", "--tie-tol", "-1"],
     "tie_tol"),
    (["capacity", "{gamma_list}"], "gamma"),
    (["capacity", "{gamma_bool}"], "gamma"),
    (["capacity", "{params_entry}"], "generator.params[0]"),
    (["capacity", "{atoms_int}"], "atoms"),
    (["capacity", "{generator_list}"], "generator"),
    (["capacity", "{params_int}"], "generator.params"),
    (["capacity", "{num_inputs_list}"], "num_inputs"),
    (["eps-capacity", "{pair}", "--eps", "0.3", "--grid", "0"], "--grid"),
    (["second-order", "{pair}", "--eps", "0.3", "--grid", "-1"], "--grid"),
    (["check-well-ordered", "{pair}", "--grid", "0"], "--grid"),
    (["validate-lemmas", "{pair}", "--n", "6", "--z-points", "0"], "--z-points"),
    (["check-well-ordered", "{pair}", "--tol", "-1"], "tol"),
])
def test_invalid_input_is_one_error_line(argv, names, pair_spec, tmp_path, capsys):
    paths = {name: write_spec(tmp_path, doc, name=f"{name}.json")
             for name, doc in BAD_SPECS.items()}
    argv = [a.format(pair=pair_spec, bsc3=os.path.join(GOLDEN, "bsc3.json"), **paths)
            for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert names in lines[0]


@pytest.mark.parametrize("bound", ["feinstein", "hn", "mixed-converse"])
def test_fbl_mc_flag_forces_monte_carlo(bound, pair_spec, capsys):
    argv = ["fbl", pair_spec, "--n", "40", "--rate", "0.2", "--bound", bound,
            "--mc", "--trials", "2000", "--seed", "3"]
    assert main(argv) == 0
    header, row = capsys.readouterr().out.splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["method"] == "mc"
    assert int(fields["trials"]) == 2 * 2000
    assert float(fields["stderr"]) > 0.0


# Every key of this spec is either optional (OPTIONAL_KEYS) or needed for it
# to load: the atom and generator weights only sum to 1 together, and gamma
# needs the cost vector.
FUZZ_BASE = {
    "num_inputs": 2,
    "num_outputs": 2,
    "cost": [0.0, 1.0],
    "gamma": 0.5,
    "atoms": [{"weight": 0.5, "rows": [[0.9, 0.1], [0.2, 0.8]]}],
    "generator": {"family": "bsc", "params": [{"p": 0.1, "weight": 0.5}]},
}
OPTIONAL_KEYS = {("num_inputs",), ("num_outputs",), ("gamma",)}


def _paths(node, prefix=()):
    """(path, value) for every key and list index under node."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,), value
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _json_type(v) -> str:
    """The JSON type of a decoded value; ints and floats are both "number"."""
    names = {type(None): "None", bool: "bool", int: "number", float: "number",
             str: "str", list: "list", dict: "object"}
    return names[type(v)]


_JSON_SCALARS = {
    "None": st.none(),
    "bool": st.booleans(),
    "number": st.integers() | st.floats(allow_nan=False, allow_infinity=False),
    "str": st.text(max_size=8),
}
_JSON_ANY = st.recursive(st.one_of(*_JSON_SCALARS.values()),
                         lambda inner: st.lists(inner, max_size=3)
                         | st.dictionaries(st.text(max_size=6), inner, max_size=3),
                         max_leaves=6)
_JSON_BY_TYPE = dict(_JSON_SCALARS, list=st.lists(_JSON_ANY, max_size=3),
                     object=st.dictionaries(st.text(max_size=6), _JSON_ANY, max_size=3))


@st.composite
def _mutated_spec(draw):
    """(spec, mutated path, dropped?): FUZZ_BASE with one field retyped or one key dropped."""
    paths = list(_paths(FUZZ_BASE))
    drop = draw(st.booleans())
    if drop:
        paths = [(p, v) for p, v in paths if isinstance(p[-1], str)]
    path, old = draw(st.sampled_from(paths))
    if not drop:
        kind = draw(st.sampled_from(sorted(set(_JSON_BY_TYPE) - {_json_type(old)})))
        new = draw(_JSON_BY_TYPE[kind])
    doc = json.loads(json.dumps(FUZZ_BASE))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if drop:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return doc, path, drop


@settings(max_examples=150, deadline=None)
@given(_mutated_spec())
def test_malformed_spec_fuzz_is_one_error_line(tmp_path_factory, case):
    doc, path, drop = case
    spec = tmp_path_factory.mktemp("fuzz") / "spec.json"
    spec.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["capacity", str(spec)])
    if drop and path in OPTIONAL_KEYS:
        assert (code, err.getvalue()) == (0, "")
        return
    assert code in (1, 2), (doc, out.getvalue())
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith(("error:", "numerical failure:"))


SOLVE_ONCE_ARGV = [
    ["capacity"],
    ["eps-capacity", "--eps", "0.35"],
    ["second-order", "--eps", "0.35"],
    ["check-well-ordered"],
    ["eps-capacity", "--eps", "0.35", "--well-ordered"],
    ["second-order", "--eps", "0.35", "--well-ordered"],
]


@pytest.mark.parametrize("argv", SOLVE_ONCE_ARGV, ids=" ".join)
def test_each_component_is_solved_once(argv, monkeypatch):
    """On a 3-atom spec every command runs one capacity solve per component."""
    calls = {"constrained_capacity": 0, "capacity_achieving_set": 0}
    for name in calls:
        original = getattr(mixcap.optimizer, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        # the modules import these names with "from .optimizer import ...":
        # patch every binding
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "mixcap":
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    code, _, _ = run_command([argv[0], os.path.join(GOLDEN, "bsc3.json"), *argv[1:]])
    assert code == 0
    assert calls["constrained_capacity"] == 3
    assert calls["capacity_achieving_set"] in (0, 3)
