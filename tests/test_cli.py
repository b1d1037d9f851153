import json
import math

import numpy as np
import pytest

from mixcap.cli import load_spec, main, run_command
from conftest import bsc_capacity, z_channel_matching


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


@pytest.mark.parametrize("argv, names", [
    (["capacity", "{cost}"], "cost"),
    (["fbl", "{pair}", "--n", "0", "--rate", "0.1", "--bound", "feinstein"], "--n"),
    (["fbl", "{pair}", "--n", "-3", "--rate", "0.1", "--bound", "feinstein"], "--n"),
    (["validate-lemmas", "{pair}", "--n", "0"], "--n"),
    (["second-order", "{pair}", "--eps", "0.3", "--tie-tol", "-1"], "tie_tol"),
    (["capacity", "{pair}", "--threads", "0"], "--threads"),
    (["fbl", "{pair}", "--n", "20", "--rate", "0.1", "--bound", "exact", "--mc",
      "--trials", "100"], "--mc"),
])
def test_invalid_input_is_one_error_line(argv, names, pair_spec, tmp_path, capsys):
    cost = write_spec(tmp_path, {
        "cost": 1.0,
        "atoms": [{"weight": 1.0, "rows": [[0.9, 0.1], [0.2, 0.8]]}],
    }, name="cost.json")
    argv = [a.format(cost=cost, pair=pair_spec) for a in argv]
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
