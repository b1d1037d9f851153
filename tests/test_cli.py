import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixcap.optimizer
import mixcap.spectrum
from mixcap.cli import _parser, load_spec, main, run_command
from conftest import bsc_capacity, random_dmc, z_channel_matching

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))  # a str is raw text
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


def _rows(capsys):
    lines = capsys.readouterr().out.splitlines()
    return [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]


def test_twenty_atoms_take_the_general_search_with_the_well_ordered_value(tmp_path, capsys):
    """20 BSCs, where 2^20 atom subsets once exceeded the cap: the search visits one bound
    level, and both general commands print what --well-ordered prints but for its tags."""
    path = write_spec(tmp_path, {"generator": {"family": "bsc", "params": [
        {"p": 0.01 + 0.02 * k, "weight": 0.05} for k in range(20)]}})
    for command in ("eps-capacity", "second-order"):
        assert main([command, path, "--eps", "0.1"]) == 0
        (general,) = _rows(capsys)
        assert main([command, path, "--eps", "0.1", "--well-ordered"]) == 0
        (exact,) = _rows(capsys)
        assert (general.pop("method"), exact.pop("method")) == ("lower-bound", "exact-formula")
        if command == "eps-capacity":
            assert (general.pop("achieving_component"), exact.pop("achieving_component")) == (
                "", "17")
            assert float(general["value"]) == pytest.approx(bsc_capacity(0.35), abs=1e-9)
        assert general == exact


def test_many_light_atoms_above_the_quantile_settle_by_the_level_union(tmp_path, capsys,
                                                                       caplog):
    """BSC(0.45) of weight 0.1, BSC(0.3) of weight 0.5 and 25 stronger BSCs of weight 0.016
    at eps 0.3: the first feasible level may drop any of the 25 (2^25 masks, past the cap),
    but its union keeps all 26 within DEFAULT_TOL of C(BSC(0.3)), so that one set settles
    the search.  Both commands print the capacity quantile and its closed-form second-order
    value sqrt(V) Phi^-1((0.3 - 0.1) / 0.5), with and without --well-ordered.  The second
    spec splits BSC(0.3) into BSC(0.3) and BSC(0.30000006) of weight 0.25 each, whose
    capacities tie within the ordering check's 1e-7 but not within DEFAULT_TOL: the union
    still settles at the weaker one, and the second-order value is sqrt(V) Phi^-1(0.8)."""
    light = [{"p": 0.01 * (k + 1), "weight": 0.016} for k in range(25)]
    split = [{"p": 0.3, "weight": 0.25}, {"p": 0.30000006, "weight": 0.25}]
    caplog.set_level("DEBUG", logger="mixcap.first_order")
    for name, middle, p, component, masses, quantile in [
            ("one", [{"p": 0.3, "weight": 0.5}], 0.3, "1", ("0.1", "0.6"), 0.4),
            ("tie", split, 0.30000006, "2", ("0.1", "0.35"), 0.8)]:
        path = write_spec(tmp_path, {"generator": {"family": "bsc", "params": [
            {"p": 0.45, "weight": 0.1}, *middle, *light]}}, name=f"{name}.json")
        for command in ("eps-capacity", "second-order"):
            assert main([command, path, "--eps", "0.3"]) == 0
            (general,) = _rows(capsys)
            assert main([command, path, "--eps", "0.3", "--well-ordered"]) == 0
            (exact,) = _rows(capsys)
            assert (general.pop("method"), exact.pop("method")) == ("lower-bound",
                                                                    "exact-formula")
            if command == "eps-capacity":
                assert (general.pop("achieving_component"),
                        exact.pop("achieving_component")) == ("", component)
                assert float(exact["value"]) == pytest.approx(bsc_capacity(p), abs=1e-9)
                assert (exact["mass_below"], exact["mass_at_or_below"]) == masses
            else:
                dispersion = p * (1 - p) * math.log((1 - p) / p) ** 2
                assert float(exact["value"]) == pytest.approx(
                    math.sqrt(dispersion) * NormalDist().inv_cdf(quantile), abs=1e-9)
            assert general == exact
            if name == "tie" and command == "eps-capacity":
                assert (exact["value"], exact["upper_bound"]) == ("0.082282827667",
                                                                  "0.08228282766718875")
            elif name == "tie":
                assert (exact["value"], exact["theta2_mass"]) == ("0.32678515495547344", "0.25")
    summaries = [r.getMessage() for r in caplog.records if "sets settled" in r.getMessage()]
    assert len(summaries) == 8 and all(s.startswith("eps-capacity: 1 sets settled over 1 bound "
                                                    "levels") for s in summaries)


def test_twenty_four_equal_atoms_are_one_atom_of_the_search(tmp_path, capsys):
    """24 copies of BSC(0.11) merge into one atom, so eps 0.5 leaves one set to settle."""
    path = write_spec(tmp_path, {"generator": {"family": "bsc", "params": [
        {"p": 0.11, "weight": 1 / 24} for _ in range(24)]}})
    for command in ("eps-capacity", "second-order"):
        assert main([command, path, "--eps", "0.5", "--well-ordered"]) == 0
        (row,) = _rows(capsys)
        assert row["method"] == "exact-formula"
    assert main(["eps-capacity", path, "--eps", "0.5", "--well-ordered"]) == 0
    (row,) = _rows(capsys)
    assert float(row["value"]) == pytest.approx(bsc_capacity(0.11), abs=1e-9)
    assert row["achieving_component"] == "0"


def test_sixty_atoms_refuse_a_level_past_the_cap(tmp_path, capsys):
    """60 random 3-input atoms of weight 1/60 at eps 0.1: after the one set of its first
    bound level, the next level may drop any of 55 atoms, and 2^55 drop masks exceed
    ENUM_CAP; both commands exit 2 on one line that names both numbers."""
    rng = np.random.default_rng(1)
    path = write_spec(tmp_path, {"atoms": [
        {"weight": 1 / 60, "rows": random_dmc(rng, 3, 3).rows.tolist()} for _ in range(60)]})
    for command in ("eps-capacity", "second-order"):
        assert main([command, path, "--eps", "0.1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "numerical failure: 55 droppable atoms at one bound level: 2^55 = "
            "36028797018963968 atom subsets exceed the cap 1000000"]


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


def test_validate_lemmas_zero_entries_raise_no_warning(capsys):
    """zbsc.json has W(1|0) = 0: joint types of zero probability stay out of the statistics."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["validate-lemmas", os.path.join(GOLDEN, "zbsc.json"), "--n", "6"])
    assert rc == 0
    assert capsys.readouterr().err == ""


def test_validate_lemmas_reports_a_vacuous_expurgation_bound(tmp_path, capsys):
    """On a 32x32 channel 2 (n + 1)^(|X| |Y|) passes the float range at n = 1: the bound
    is reported as -inf, not raised as an OverflowError."""
    rows = np.random.default_rng(32).dirichlet(np.ones(32), size=32)
    spec = tmp_path / "wide32.json"
    spec.write_text(json.dumps({"atoms": [{"weight": 0.5, "rows": rows.tolist()},
                                          {"weight": 0.5, "rows": np.eye(32).tolist()}]}))
    assert main(["validate-lemmas", str(spec), "--n", "1"]) == 0
    assert "bound=-inf" in capsys.readouterr().out


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
    "not_json": "{",
    "top_list": [],
    "num_inputs_3": {"num_inputs": 3, "atoms": ONE_ATOM},
    "cost_3": {"cost": [0.0, 1.0, 2.0], "atoms": ONE_ATOM},
    "no_atoms": {},
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
    (["fbl", "{bsc3}", "--n", "20", "--rate", "nan", "--bound", "exact"], "--rate"),
    (["validate-lemmas", "{pair}", "--n", "6", "--z-points", "0"], "--z-points"),
    (["check-well-ordered", "{pair}", "--tol", "-1"], "tol"),
    (["second-order", "{bsc3}", "--eps", "0.35", "--rate", "nan"], "--rate"),
    (["fbl", "{bsc3}", "--n", "20", "--rate", "0.3", "--bound", "feinstein", "--trials", "-5"],
     "--trials"),
    (["fbl", "{bsc3}", "--n", "20", "--rate", "0.3", "--bound", "feinstein", "--mc",
      "--trials", "100", "--seed", "-1"], "--seed"),
    (["capacity", "{cost2}", "--gamma", "nan"], "gamma"),
    (["eps-capacity", "{cost2}", "--eps", "0.3", "--gamma", "nan"], "gamma"),
    (["capacity", "{cost2}", "--gamma", "inf"], "gamma"),
    (["capacity", "{cost2}", "--gamma", "-inf"], "--gamma"),  # argparse reads -inf as a flag
    (["check-well-ordered", "{bsc3}", "--grid", "0"], "--grid"),  # an unknown flag
    (["fbl", "{bsc3}", "--n", "20", "--rate", "0.3", "--bound", "feinstein", "--eta", "inf"],
     "eta"),
    (["fbl", "{bsc3}", "--n", "20", "--rate", "0.3", "--bound", "hn", "--eta", "inf", "--mc",
      "--trials", "100", "--seed", "3"], "eta"),
    (["validate-lemmas", "{mix2x2}", "--n", "6", "--gamma-slack", "inf"], "gamma_slack"),
    (["fbl", "{mix2x2}", "--n", "100", "--rate", "0.3", "--bound", "exact", "--trials", "1000"],
     "--trials"),
    (["check-well-ordered", "{multi5}", "--tol", "nan"], "tol"),
    (["check-well-ordered", "{multi5}", "--tol", "inf"], "tol"),
    (["second-order", "{mix2x2}", "--eps", "0.3", "--tie-tol", "nan"], "tie_tol"),
    (["second-order", "{mix2x2}", "--eps", "0.3", "--tie-tol", "inf"], "tie_tol"),
    (["fbl", "{mix2x2}", "--n", "20", "--rate", "0.2", "--bound", "feinstein",
      "--input-probs", "nan,1"], "input distribution"),
    (["validate-lemmas", "{mix2x2}", "--n", "6", "--input-probs", "nan,1"],
     "input distribution"),
    (["fbl", "{mix2x2}", "--n", "20", "--rate", "0.2", "--bound", "feinstein",
      "--input-probs="], "--input-probs"),
    (["validate-lemmas", "{mix2x2}", "--n", "6", "--input-probs", "0.2,0.3,0.5"],
     "--input-probs"),
    (["fbl", "{mix2x2}", "--n", "20", "--rate", "0.2", "--bound", "feinstein",
      "--input-probs", "a,b"], "--input-probs entry 'a' is not a number"),
    (["fbl", "{bsc3}", "--n", str(10**20), "--rate", "0.3", "--bound", "feinstein",
      "--trials", "100", "--mc"], "--n"),
    (["validate-lemmas", "{mix2x2}", "--n", str(10**20)], "--n"),
    (["validate-lemmas", "{mix2x2}", "--n", "6", "--z-points", str(10**12)], "--z-points"),
    (["fbl", "{bsc3}", "--n", "20", "--rate", "0.3", "--bound", "feinstein", "--mc",
      "--trials", "100", "--seed", str(10**41)], "--seed"),
    (["fbl", "{bsc3}", "--n", "20", "--rate", "0.3", "--bound", "feinstein", "--mc",
      "--trials", "100", "--threads", "257"], "--threads"),
    (["fbl", "{bsc3}", "--n", "20", "--rate", "-0.3", "--bound", "feinstein"], "--rate"),
    (["fbl", "{bsc3}", "--n", "20", "--rate", "inf", "--bound", "feinstein"], "--rate"),
    (["capacity", "{bsc3}", "--out", "{bsc3}/out.csv"], "out.csv"),  # a file as directory
    (["capacity", "{cost2}", "--gamma", "0.5", "--unconstrained"],
     "not allowed with argument --gamma"),
    (["capacity", "{cost2}", "--unconstrained", "--gamma", "0.5"],
     "not allowed with argument --unconstrained"),
    (["second-order", "{bsc3}", "--eps", "0.3", "--well-ordered", "--rate", "0.1"],
     "not allowed with argument --well-ordered"),
    (["fbl", "{binding3}", "--n", "30", "--rate", "0.1", "--bound", "feinstein",
      "--input-probs", "0,0,1"], "--input-probs costs 2 per letter"),
    (["validate-lemmas", "{binding3}", "--n", "4"], "--input-probs"),
    # zbsc fails the ordering check: the flags are checked before it
    (["eps-capacity", "{zbsc}", "--eps", "1.5", "--well-ordered"], "eps"),
    (["eps-capacity", "{zbsc}", "--eps", "nan", "--well-ordered"], "eps"),
    (["second-order", "{zbsc}", "--eps", "1.5", "--well-ordered"], "eps"),
    (["second-order", "{zbsc}", "--eps", "0.3", "--well-ordered", "--tie-tol", "-1"],
     "tie_tol"),
    (["second-order", "{zbsc}", "--eps", "0.3", "--well-ordered", "--tie-tol", "nan"],
     "tie_tol"),
    (["second-order", "{zbsc}", "--eps", "0.3", "--well-ordered", "--tie-tol", "inf"],
     "tie_tol"),
    (["capacity", "{not_json}"], "error: spec file does not parse as JSON: "),
    (["capacity", "{top_list}"], "error: spec file top level must be an object"),
    (["capacity", "{num_inputs_3}"],
     "error: num_inputs = 3 does not match the atom matrices (2)"),
    (["capacity", "{cost_3}"], "error: cost has 3 entries, need 2"),
    (["capacity", "{no_atoms}"],
     "error: spec file defines no atoms (need 'atoms' or 'generator')"),
    (["fbl", "{bsc3}", "--n", "20", "--rate", "0.3", "--bound", "feinstein", "--mc"],
     "error: --mc requires --trials"),
])
def test_invalid_input_is_one_error_line(argv, names, pair_spec, tmp_path, capsys):
    paths = {name: write_spec(tmp_path, doc, name=f"{name}.json")
             for name, doc in BAD_SPECS.items()}
    argv = [a.format(pair=pair_spec, bsc3=os.path.join(GOLDEN, "bsc3.json"),
                     binding3=os.path.join(GOLDEN, "binding3.json"),
                     cost2=os.path.join(GOLDEN, "cost2.json"),
                     mix2x2=os.path.join(GOLDEN, "mix2x2.json"),
                     multi5=os.path.join(GOLDEN, "multi5.json"),
                     zbsc=os.path.join(GOLDEN, "zbsc.json"), **paths)
            for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert names in lines[0]


# each ranged flag: the argv around it ({flag} becomes FLAG=VALUE), and its lowest and
# highest value (None: unbounded above); float bounds mark a float flag
RANGED = [
    ("capacity {spec} {flag}", "--threads", 1, 256),
    ("{flag} capacity {spec}", "--threads", 1, 256),
    ("fbl {spec} --rate 0.1 --bound hn {flag}", "--n", 1, 2**63 - 1),
    ("validate-lemmas {spec} {flag}", "--n", 1, 2**63 - 1),
    ("fbl {spec} --n 5 --rate 0.1 --bound hn {flag}", "--seed", 0, 2**64 - 1),
    ("fbl {spec} --n 5 --rate 0.1 --bound hn {flag}", "--trials", 1, None),
    ("validate-lemmas {spec} {flag}", "--z-points", 1, 10**6),
    ("eps-capacity {spec} --eps 0.1 {flag}", "--grid", 1, None),
    ("second-order {spec} --eps 0.1 {flag}", "--grid", 1, None),
    ("fbl {spec} --n 5 --bound hn {flag}", "--rate", 0.0, sys.float_info.max),
    ("second-order {spec} --eps 0.1 {flag}", "--rate", -math.inf, math.inf),
]


@pytest.mark.parametrize("template, flag, lo, hi", RANGED, ids=[
    t.split()[0].replace("{flag}", "top") + flag for t, flag, _, _ in RANGED])
def test_flag_domains_are_checked_at_parse_time(template, flag, lo, hi, tmp_path, capsys):
    """The parser accepts both ends of a flag's domain and refuses one step outside
    either end (and NaN); main refuses before it reads the spec file."""
    missing = str(tmp_path / "missing.json")

    def argv(value):
        return template.format(spec=missing, flag=f"{flag}={value}").split()

    def parses(value):
        try:
            args = _parser().parse_args(argv(value))
        except ValueError:
            return False
        assert getattr(args, flag[2:].replace("-", "_")) in (value, [value])
        return True

    assert parses(lo) and parses(hi if hi is not None else 10**30)
    if isinstance(lo, float):
        outside = [math.nextafter(lo, -math.inf)] * math.isfinite(lo) + [
            math.nextafter(hi, math.inf)] * math.isfinite(hi) + [math.nan]
    else:
        outside = [lo - 1] + ([hi + 1] if hi is not None else [])
    assert not any(parses(v) for v in outside)
    for value in outside:
        assert main(argv(value)) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: argument {flag}: must be ")


@pytest.mark.parametrize("argv, extra", [
    (["fbl", "binding3.json", "--n", "30", "--rate", "0.1", "--bound", "feinstein",
      "--input-probs", "0,0,1"], ["--gamma", "2"]),
    (["validate-lemmas", "binding3.json", "--n", "4"], ["--gamma", "1"]),
])
def test_an_input_over_the_budget_is_refused(argv, extra, capsys):
    """binding3.json costs (0, 1, 2) against gamma 0.64: an input above that budget is
    one error line naming the flag and gamma, unless --unconstrained or a wider --gamma."""
    argv = [os.path.join(GOLDEN, a) if a.endswith(".json") else a for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "--input-probs" in lines[0] and "gamma = 0.64" in lines[0]
    for lift in (["--unconstrained"], extra):
        assert main(argv + lift) == 0
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("level, code", [
    ("verbose", 1), ("BASIC_FORMAT", 1), ("info", 0), ("Critical", 0), ("", 0)])
def test_mixcap_log_takes_a_level_name_in_any_case(level, code, monkeypatch, capsys):
    monkeypatch.setenv("MIXCAP_LOG", level)
    assert main(["capacity", os.path.join(GOLDEN, "bsc3.json")]) == code
    err = capsys.readouterr().err.splitlines()
    if code == 0:
        assert err == []
    else:
        assert len(err) == 1 and err[0].startswith("error: MIXCAP_LOG must be one of DEBUG, ")


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


def _count_convolutions(monkeypatch):
    calls = []
    original = mixcap.spectrum.convolve_n

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(mixcap.spectrum, "convolve_n", counted)
    return calls


def test_fbl_trials_below_the_type_count_sample_without_convolving(monkeypatch):
    """A 2-atom 2x2 mixture at n = 100 has 176,851 types per component, more than the
    40,000 trials asked for: the path is Monte Carlo before any law is built, and the
    bytes are those of the sampler alone."""
    calls = _count_convolutions(monkeypatch)
    code, out, _ = run_command(["fbl", os.path.join(GOLDEN, "mix2x2.json"), "--n", "100",
                                "--rate", "0.3", "--bound", "mixed-converse",
                                "--trials", "40000", "--seed", "7"])
    assert code == 0 and calls == []
    assert out.splitlines()[1] == ("mixed-converse,0.19712460007023752,probability,mc,100,"
                                   "0.3,nats,0.1,0.0014044847053279006,80000,7,")


def test_fbl_is_exact_up_to_the_type_cap(tmp_path, monkeypatch, capsys):
    """A generic 2x2 at n = 150 has 585,276 types, under ENUM_CAP: exact without
    --trials, and within 4 stderr of 200,000 Monte-Carlo trials.  At n = 400 its
    10,827,401 types exit 2 on one line naming the count, before any law is built."""
    spec = write_spec(tmp_path, {"atoms": [{"weight": 1.0, "rows": [[0.9, 0.1], [0.25, 0.75]]}]})
    argv = ["fbl", spec, "--n", "150", "--rate", "0.25", "--bound", "mixed-converse"]
    rows = []
    for extra in ([], ["--mc", "--trials", "200000", "--seed", "1"]):
        assert main(argv + extra) == 0
        header, row = capsys.readouterr().out.splitlines()
        rows.append(dict(zip(header.split(","), row.split(","))))
    exact, mc = rows
    assert exact["method"] == "exact" and mc["method"] == "mc"
    assert abs(float(exact["value"]) - float(mc["value"])) <= 4 * float(mc["stderr"])
    calls = _count_convolutions(monkeypatch)
    argv[argv.index("150")] = "400"
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and calls == []
    # T and the cap, and no advice: the same error reaches --bound exact, which has no
    # Monte-Carlo path
    assert lines == ["numerical failure: the exact tail needs 10827401 types, past the cap 1000000"]


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


def test_validate_lemmas_expurgates_once_per_n(monkeypatch):
    """The expurgated_mass row comes from the decomposition check's own expurgation."""
    calls = []
    original = mixcap.types_toolkit.expurgated_space

    def counted(mixed, q_list, n):
        calls.append(n)
        return original(mixed, q_list, n)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "mixcap" and getattr(mod, "expurgated_space", None) is original:
            monkeypatch.setattr(mod, "expurgated_space", counted)
    code, _, _ = run_command(["validate-lemmas", os.path.join(GOLDEN, "zbsc.json"),
                              "--n", "6", "10"])
    assert code == 0
    assert calls == [6, 10]


def test_debug_log_explains_eps_capacity_on_stderr_only():
    """MIXCAP_LOG=DEBUG reports each atom set's bracket, then the sets settled, the bound levels
    visited, the duplicate atoms merged, where the search stopped and the final bracket, and
    each capacity solve its path, alternating iterations, Newton steps, certified gap and
    multiplier; the primary output stays byte-identical."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(GOLDEN), "..", "src"))
    stderr = {}
    for spec in ("zbsc.json", "binding3.json"):  # binding3: a binding budget on 3 inputs
        argv = [sys.executable, "-m", "mixcap.cli", "eps-capacity",
                os.path.join(GOLDEN, spec), "--eps", "0.3"]
        env.pop("MIXCAP_LOG", None)
        quiet = subprocess.run(argv, capture_output=True, text=True, env=env, check=True)
        env["MIXCAP_LOG"] = "DEBUG"
        loud = subprocess.run(argv, capture_output=True, text=True, env=env, check=True)
        assert loud.stdout == quiet.stdout and quiet.stderr == ""
        assert "eps-capacity set (0, 1) by cutting planes, " in loud.stderr
        assert "oracle solves: [" in loud.stderr
        assert re.search(r"eps-capacity: 1 sets settled over 1 bound levels, 0 duplicate atoms "
                         r"merged, (all levels visited|stopped at bound \S+ below lower bound "
                         r"\S+); bracket \[", loud.stderr)
        stderr[spec] = loud.stderr
    # binary inputs take the same solve as any other alphabet
    assert "constrained_capacity (Newton on the optimal face): " in stderr["zbsc.json"]
    solves = [line for line in stderr["binding3.json"].splitlines() if "constrained_capacity" in line]
    oracle = int(re.search(r"(\d+) oracle solves", stderr["binding3.json"]).group(1))
    assert len(solves) == 2 + oracle > 2  # one line per component solve and per oracle solve
    assert all(re.search(r"constrained_capacity \((alternating maximization|Newton on the "
                         r"optimal face)\): \d+ alternating iterations, \d+ Newton steps, "
                         r"certified gap \S+, multiplier 0\.\d+$", line) for line in solves)



@pytest.mark.parametrize("argv", [
    ["capacity"],
    ["eps-capacity", "--eps", "0.3"],
    ["eps-capacity", "--eps", "0.3", "--well-ordered"],
    ["second-order", "--eps", "0.3"],
    ["second-order", "--eps", "0.3", "--well-ordered"],
    ["check-well-ordered"],
], ids=" ".join)
def test_budget_pinned_with_an_infinite_multiplier(argv):
    """pinnedinf.json pins the budget at two zero-cost letters, and the dearer third letter
    reaches an output they miss, so the multiplier is +inf: every command answers, with
    nothing on stderr and no nan."""
    proc = _cli_process([argv[0], os.path.join(GOLDEN, "pinnedinf.json"), *argv[1:]], True,
                        capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "nan" not in proc.stdout


@pytest.mark.parametrize("spec, flags", [
    ("pinned4.json", []), ("pinnedinf.json", []), ("cost3.json", ["--gamma", "0"])],
    ids=["pinned4", "pinnedinf", "cost3-gamma0"])
def test_a_budget_pinned_at_the_cheapest_cost_prints_no_mass_on_dearer_letters(spec, flags,
                                                                               capsys):
    """A budget at the cheapest cost gives the numbers of the cheapest letters alone: every
    printed input is exactly 0 on a letter above the budget, not a round-off mass."""
    path = os.path.join(GOLDEN, spec)
    dear = load_spec(path)[1].costs > 0.0  # each budget here is pinned at cost 0
    for command, column in (("eps-capacity", "argmax_input"), ("second-order", "input")):
        for eps in ("0", "0.3"):
            assert main([command, path, "--eps", eps, *flags]) == 0
            (row,) = _rows(capsys)
            assert np.array(row[column].split(), dtype=float)[dear].tolist() == [0.0] * dear.sum()


def _cli_process(argv, unbuffered, env=(), **kwargs):
    """Run ``python -m mixcap.cli`` with PYTHONUNBUFFERED set or removed: buffered
    output reaches its file only if the process flushes it before it exits."""
    env = dict({k: v for k, v in os.environ.items() if k not in ("PYTHONUNBUFFERED", "MIXCAP_LOG")},
               **dict(env), PYTHONPATH=os.path.join(os.path.dirname(GOLDEN), "..", "src"))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "mixcap.cli", *argv], env=env, **kwargs)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_process_exit_codes_streams_and_out_files(unbuffered, tmp_path, monkeypatch):
    """The process exits without interpreter teardown; its exit code, stderr lines and
    --out files are those of main in process (the manifest's wall time aside)."""
    bsc3, binding3 = (os.path.join(GOLDEN, name) for name in ("bsc3.json", "binding3.json"))
    bad = write_spec(tmp_path, {"atoms": [{"weight": 1.0, "rows": [[0.5, 0.6], [0.5, 0.5]]}]})
    for argv, code, first in [
        (["capacity", bad], 1, "error: "),
        (["eps-capacity", binding3, "--eps", "0.3", "--well-ordered"], 2, "numerical failure: "),
    ]:
        proc = _cli_process(argv, unbuffered, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (code, "")
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith(first)
    proc = _cli_process(["--help"], unbuffered, capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.startswith("usage: mixcap")

    argv = ["eps-capacity", bsc3, "--eps", "0.35", "--out", "out.csv"]
    (tmp_path / "sub").mkdir()
    proc = _cli_process(argv, unbuffered, capture_output=True, text=True,
                        cwd=tmp_path / "sub", env={"MIXCAP_LOG": "DEBUG"})
    assert (proc.returncode, proc.stdout) == (0, "")
    assert "DEBUG:mixcap:loaded 3 atoms" in proc.stderr
    assert "DEBUG:mixcap.optimizer:constrained_capacity" in proc.stderr
    (tmp_path / "in").mkdir()
    monkeypatch.chdir(tmp_path / "in")
    assert main(argv) == 0
    for name in ("out.csv", "out.csv.manifest.json"):
        sub, inproc = ((tmp_path / d / name).read_text() for d in ("sub", "in"))
        assert re.sub(r'"wall_time_s": \S+', "", sub) == re.sub(r'"wall_time_s": \S+', "", inproc)
    assert '"wall_time_s": ' in sub


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stdout_is_one_error_line(unbuffered):
    """With the reader of stdout gone, the write (unbuffered) or the flush before the
    exit (buffered) fails: exit 1 with one error line, never a traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _cli_process(["check-well-ordered", os.path.join(GOLDEN, "bsc3.json")],
                            unbuffered, stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: [Errno 32] Broken pipe"]


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _threads_and_blas_vars(first_import, preset):
    """Import first_import in a fresh process with only preset of BLAS_VARS set; return
    its OS thread count and the two variables ('-' when unset) as strings."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(preset, PYTHONPATH=os.path.join(os.path.dirname(GOLDEN), "..", "src"))
    code = (f"import {first_import}, os; print(len(os.listdir('/proc/self/task')), "
            f"*(os.environ.get(v, '-') for v in {BLAS_VARS!r}))")
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True).stdout.split()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("preset, blas_vars", [
    ({}, ["1", "-"]),
    ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "-"]),
    ({"OMP_NUM_THREADS": "2"}, ["-", "2"]),
], ids=["unset", "openblas-2", "omp-2"])
def test_blas_starts_on_one_thread_unless_the_user_set_a_count(preset, blas_vars):
    """Loading mixcap first starts numpy's BLAS on one OS thread; a count the user set
    in either variable is left as set, and numpy then starts as many threads as alone."""
    threads, *seen = _threads_and_blas_vars("mixcap.cli", preset)
    assert seen == blas_vars
    if preset:
        assert threads == _threads_and_blas_vars("numpy", preset)[0]
    else:
        assert threads == "1"
