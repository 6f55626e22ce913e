import contextlib
import copy
import io
import json
import math
import os
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as hst

from conftest import set_from_cellsets
from opqkd import build_3x3, build_symmetric, cli, p3_formula, stateset_from_text, stateset_to_text
from opqkd.adversary import (
    ATTACK_NAMES,
    STRATEGY_NAMES,
    ConditionalInterceptResend,
    EveStrategy,
    conditional_b_basis,
)
from opqkd.analysis import exact_undetected_prob
from opqkd.cli import SEED_ENV_VAR, main
from opqkd.errors import InvalidSetError, UnsupportedDimensionError
from opqkd.qcore import MeasurementBasis, RngStream, born_probabilities, tensor
from opqkd.stateset import MAX_DIM, SetParameters, bob_basis

DEGENERATE = "1,0,1,0,1,0,1,0"
SKEWED = "1,0,0.9486832980505138,0.31622776601683794,1,0,1,0"


def read_report(path):
    pairs = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition(" = ")
            pairs[key] = value
    return pairs


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def test_validate_symmetric_passes(tmp_path):
    out = tmp_path / "report.txt"
    assert main(["validate", "--dim", "5", "--output", str(out)]) == 0
    report = read_report(out)
    assert report["verdict"] == "pass"
    assert report["dim"] == "5"
    assert report["set"] == "symmetric-5"
    assert report["conditions_pass"] == "1"
    assert report["four_fold_symmetric"] == "1"
    assert report["condition_failures"] == "none"


def test_validate_unsupported_dimension_exits_2():
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["validate", "--dim", "2"]) == 2
    assert "error:" in err.getvalue()


def test_validate_degenerate_params_fails(tmp_path):
    out = tmp_path / "report.txt"
    code = main(["validate", "--params", DEGENERATE, "--output", str(out)])
    assert code == 1
    report = read_report(out)
    assert report["verdict"] == "fail"
    assert report["conditions_pass"] == "0"
    assert report["condition_failures"] != "none"


def test_validate_rejects_params_off_dimension():
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["validate", "--dim", "5", "--params", DEGENERATE]) == 1
    assert "error:" in err.getvalue()


def test_validate_rejects_unnormalized_params():
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["validate", "--params", "2,0,1,0,1,0,1,0"]) == 1
    assert "error:" in err.getvalue()


def test_validate_rejects_short_params():
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["validate", "--params", "1,0,1"]) == 1
    assert "error:" in err.getvalue()


def test_validate_export_round_trip(tmp_path):
    exported = tmp_path / "set.json"
    out = tmp_path / "report.txt"
    assert main(["validate", "--dim", "4", "--export", str(exported),
                 "--output", str(out)]) == 0
    assert exported.read_text(encoding="utf-8") == stateset_to_text(build_symmetric(4))

    reread = tmp_path / "reread.txt"
    assert main(["validate", "--set-file", str(exported), "--output", str(reread)]) == 0
    report = read_report(reread)
    assert report["verdict"] == "pass"
    assert report["set"] == f"file:{exported}"


def test_validate_malformed_set_file_fails_cleanly(tmp_path):
    doc = json.loads(stateset_to_text(build_symmetric(3)))
    del doc["n"]
    bad = tmp_path / "missing-n.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["validate", "--set-file", str(bad)]) == 1
    assert "verdict = fail" in out.getvalue()


def test_validate_unbuildable_report_goes_to_the_output_file(tmp_path):
    # with --output the report of a set that cannot be built is written
    # there, like every other report, and nothing reaches stdout
    bad, report = tmp_path / "bad.json", tmp_path / "report.txt"
    bad.write_text('{"format": "opqkd-stateset-1", "n": 3}', encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["validate", "--set-file", str(bad), "--output", str(report)]) == 1
    assert out.getvalue() == ""
    assert read_report(report)["set"] == "unbuildable"
    assert read_report(report)["verdict"] == "fail"


def test_validate_set_file_with_two_states_swapped_fails(tmp_path):
    doc = json.loads(stateset_to_text(build_symmetric(4)))
    first, second = doc["states"][5], doc["states"][9]
    for key in ("ket_a", "ket_b"):
        first[key], second[key] = second[key], first[key]
    bad = tmp_path / "swapped.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["validate", "--set-file", str(bad)]) == 1
    assert "verdict = fail" in out.getvalue()
    assert "state 5 does not match its tile" in out.getvalue()


def test_validate_infinite_tile_amplitude_fails_without_warnings(tmp_path):
    doc = json.loads(stateset_to_text(build_3x3()))
    doc["tiles"][0]["amplitudes"][0][0] = [math.inf, 0.0]
    bad = tmp_path / "infinite.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(["validate", "--set-file", str(bad)]) == 1
    assert "verdict = fail" in out.getvalue()
    assert "finite" in out.getvalue()
    assert err.getvalue() == "" and caught == []


def test_validate_deeply_nested_set_file_fails_cleanly(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["validate", "--set-file", str(deep)]) == 1
    assert "verdict = fail" in out.getvalue()


@pytest.mark.parametrize("command", [["validate"], ["exact"], ["simulate", "--rounds", "10"]])
def test_set_file_beyond_dimension_ceiling_is_refused(tmp_path, command):
    doc = {"format": "opqkd-stateset-1", "n": MAX_DIM + 1, "states": [], "tiles": []}
    big = tmp_path / "big.json"
    big.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main([*command, "--set-file", str(big)]) == 2
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: set-file n {MAX_DIM + 1} exceeds")
    assert out.getvalue() == ""


def _shift(cells, da, db):
    return [[a + da, b + db] for a, b in cells]


# Set-file edits that put a number other than a JSON integer where a count
# or a label belongs; int() would round each of them back to the plain set.
_FRACTIONAL = {
    "n": lambda doc: doc.update(n=3.9),
    "n-text": lambda doc: doc.update(n="3"),
    "cells": lambda doc: doc["tiles"][0].update(cells=_shift(doc["tiles"][0]["cells"], 0.5, 0.25)),
    "fixed-index": lambda doc: doc["tiles"][0].update(fixed_index=doc["tiles"][0]["fixed_index"] + 0.5),
    "state-indices": lambda doc: doc["tiles"][1].update(
        state_indices=[k + 0.5 for k in doc["tiles"][1]["state_indices"]]),
    "index": lambda doc: doc["states"][0].update(index=0.7),
}


@pytest.mark.parametrize("edits", [[name] for name in _FRACTIONAL]
                         + [["n", "cells", "fixed-index", "index"]], ids=[*_FRACTIONAL, "together"])
def test_set_file_counts_and_labels_must_be_integers(tmp_path, edits):
    doc = json.loads(stateset_to_text(build_3x3()))
    for name in edits:
        _FRACTIONAL[name](doc)
    text = json.dumps(doc)
    with pytest.raises(InvalidSetError):
        stateset_from_text(text)
    path = tmp_path / "fractional.json"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["validate", "--set-file", str(path)]) == 1
    assert "verdict = fail" in out.getvalue() and err.getvalue() == ""


# Set-file edits that put JSON true where a count or a label of 1 belongs:
# tile 0 is the row tile at row 1 hosting states 0 and 1.
_BOOLEAN = {
    "fixed-index": lambda doc: doc["tiles"][0].update(fixed_index=True),
    "cells": lambda doc: doc["tiles"][0].update(cells=[[True, b] for _, b in doc["tiles"][0]["cells"]]),
    "state-indices": lambda doc: doc["tiles"][0].update(state_indices=[0, True]),
    "index": lambda doc: doc["states"][1].update(index=True),
}


@pytest.mark.parametrize("edits", [[name] for name in _BOOLEAN] + [list(_BOOLEAN)],
                         ids=[*_BOOLEAN, "together"])
def test_set_file_refuses_booleans_for_counts_and_labels(tmp_path, edits):
    doc = json.loads(stateset_to_text(build_3x3()))
    assert doc["tiles"][0]["fixed_index"] == 1 and doc["tiles"][0]["state_indices"] == [0, 1]
    for name in edits:
        _BOOLEAN[name](doc)
    text = json.dumps(doc)
    with pytest.raises(InvalidSetError):
        stateset_from_text(text)
    path = tmp_path / "boolean.json"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["validate", "--set-file", str(path)]) == 1
    assert "verdict = fail" in out.getvalue() and err.getvalue() == ""


_SET_DOC = json.loads(stateset_to_text(build_symmetric(3)))
_DEEP = "@@deep@@"  # replaced by nested arrays once the document is text
_ODD_VALUES = (None, True, -1, 0, 2.5, "x", [], {}, [[1, 0]], {"n": 3}, 10**30,
               float("nan"), float("inf"), -float("inf"), _DEEP)


def _locations(node, path=()):
    # Every path below the root of a JSON document.
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
    else:
        items = ()
    for key, child in items:
        yield path + (key,)
        yield from _locations(child, path + (key,))


_LOCATIONS = tuple(_locations(_SET_DOC))


@hst.composite
def mutated_set_texts(draw):
    """A serialized 3x3 set with dropped keys, values of the wrong type or
    length, non-finite numbers, deep nesting or an oversized "n"."""
    doc = copy.deepcopy(_SET_DOC)
    for _ in range(draw(hst.integers(1, 3))):
        *path, key = draw(hst.sampled_from(_LOCATIONS))
        try:
            parent = doc
            for step in path:
                parent = parent[step]
            value = parent[key]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed this location
        if not isinstance(parent, (dict, list)):
            continue  # an earlier mutation put a string where a container was
        kind = draw(hst.sampled_from(("drop", "swap", "length")))
        if kind == "drop":
            del parent[key]
        elif kind == "swap" or not isinstance(value, list):
            parent[key] = draw(hst.sampled_from(_ODD_VALUES))
        else:
            cut = draw(hst.integers(0, len(value)))
            parent[key] = draw(hst.sampled_from((value[:cut], value + value[:cut + 1])))
    if draw(hst.booleans()):
        doc["n"] = draw(hst.sampled_from((MAX_DIM, MAX_DIM + 1, 10**30, -5, 1e400)))
    depth = draw(hst.sampled_from((20, 100_000)))
    return json.dumps(doc).replace(f'"{_DEEP}"', "[" * depth + "]" * depth)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=mutated_set_texts())
def test_malformed_set_files_fail_only_with_documented_errors(tmp_path, text):
    try:
        stateset_from_text(text)
    except (InvalidSetError, UnsupportedDimensionError):
        pass
    path = tmp_path / "fuzzed.json"
    path.write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["validate", "--set-file", str(path)]) in (0, 1, 2)


def test_missing_set_file_exits_3(tmp_path):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["validate", "--set-file", str(tmp_path / "absent.json")]) == 3
    assert "error:" in err.getvalue()


def test_unwritable_output_exits_3(tmp_path):
    target = tmp_path / "no-such-dir" / "report.txt"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["validate", "--output", str(target)]) == 3
    assert "error:" in err.getvalue()


def test_unwritable_transcript_error_names_the_given_path(tmp_path):
    target = tmp_path / "no-such-dir" / "rounds.csv"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--rounds", "5", "--transcript", str(target)]) == 3
    assert err.getvalue() == f"error: [Errno 2] No such file or directory: '{target}'\n"


def test_sweep_refuses_negative_trials():
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        assert main(["sweep", "--max-dim", "4", "--trials", "-1"]) == 1
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "trials" in lines[0]


def test_sweep_refuses_trials_beyond_the_rounds_ceiling(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("nothing should be built for a refused sweep")

    monkeypatch.setattr(cli, "build_symmetric", refuse)
    monkeypatch.setattr(cli, "dimension_sweep", refuse)
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        assert main(["sweep", "--max-dim", "4", "--trials", str(cli._MAX_ROUNDS + 1)]) == 2
        assert main(["sweep", "--max-dim", "4", "--trials", str(10**12)]) == 2
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 2 and all(line.startswith("error: --trials ") for line in lines)
    assert cli._MAX_ROUNDS == 13_421_772


def test_unknown_strategy_rejected_by_parser():
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--strategy", "eavesdrop"])
    assert info.value.code == 2
    assert "invalid choice" in err.getvalue()


@pytest.mark.parametrize("argv", [
    ["sweep", "--max-dim", "3", "--trials", "10", "--seed", "-1"],
    ["simulate", "--rounds", "10", "--seed", str(2**64)],
])
def test_seed_outside_64_bits_exits_1(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(argv) == 1
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: seed must be in [0, 2^64)")


@pytest.mark.parametrize("argv", [
    ["sweep", "--max-dim", "3", "--seed", "-1"],
    ["demo", "--seed", "-1"],
    ["demo", "--seed", str(2**64)],
    ["simulate", "--dim", "3", "--rounds", "10", "--seed", "-1"],
])
def test_seed_is_checked_before_any_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == 1
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: seed must be in [0, 2^64)")


def test_seed_from_environment_is_checked_before_any_output(monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "-3")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["demo"]) == 1
    assert out.getvalue() == ""
    assert err.getvalue() == "error: seed must be in [0, 2^64), got -3\n"


def test_simulate_zero_rounds_exits_1():
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["simulate", "--rounds", "0"]) == 1
    assert "error:" in err.getvalue()


def test_simulate_honest_report_and_files(tmp_path):
    report_path = tmp_path / "report.txt"
    transcript = tmp_path / "rounds.csv"
    eve_csv = tmp_path / "eve.csv"
    key_out = tmp_path / "key.txt"
    code = main([
        "simulate", "--rounds", "200", "--check-fraction", "0.25", "--seed", "9",
        "--output", str(report_path), "--transcript", str(transcript),
        "--eve-transcript", str(eve_csv), "--key-out", str(key_out),
    ])
    assert code == 0
    report = read_report(report_path)
    assert report["strategy"] == "none"
    assert report["rounds"] == "200"
    assert report["rounds_checked"] == "50"
    assert report["mismatches"] == "0"
    assert report["detected"] == "0"
    assert report["key_rounds"] == "150"
    assert report["eve_accuracy"] == "n/a"
    assert float(report["bits_per_round"]) == pytest.approx(math.log2(9))

    bit_count = int(math.floor(150 * math.log2(9)))
    assert report["key_bit_count"] == str(bit_count)
    key = key_out.read_text(encoding="utf-8").strip()
    assert len(key) == bit_count
    assert set(key) <= {"0", "1"}
    assert report["key_preview"] == key[:64]

    lines = transcript.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "round_id,alice_index,bob_index,checked,mismatch"
    assert len(lines) == 201
    checked = 0
    for line in lines[1:]:
        _, alice, bob, was_checked, mismatch = line.split(",")
        assert alice == bob and mismatch == "0"
        checked += int(was_checked)
    assert checked == 50

    eve_lines = eve_csv.read_text(encoding="utf-8").splitlines()
    assert eve_lines[0] == "round_id,variant,a_outcome,b_outcome,inferred_state,correct"
    assert len(eve_lines) == 201
    assert eve_lines[1].split(",")[1:] == ["none", "", "", "", ""]


def test_simulate_intercept_detected(tmp_path):
    report_path = tmp_path / "report.txt"
    eve_csv = tmp_path / "eve.csv"
    code = main([
        "simulate", "--strategy", "intercept", "--rounds", "400", "--seed", "3",
        "--output", str(report_path), "--eve-transcript", str(eve_csv),
    ])
    assert code == 0
    report = read_report(report_path)
    assert report["detected"] == "1"
    assert report["key_rounds"] == "0"
    assert report["key_bit_count"] == "0"
    assert report["key_preview"] == "n/a"
    assert int(report["mismatches"]) > 0
    assert report["eve_accuracy"] != "n/a"

    rows = eve_csv.read_text(encoding="utf-8").splitlines()[1:]
    corrects = [row.split(",")[5] for row in rows]
    assert set(corrects) <= {"0", "1"}
    accuracy = sum(int(c) for c in corrects) / len(corrects)
    assert float(report["eve_accuracy"]) == pytest.approx(accuracy)


def test_simulate_same_seed_is_byte_identical(tmp_path):
    outputs = []
    for tag in ("a", "b"):
        report_path = tmp_path / f"report-{tag}.txt"
        transcript = tmp_path / f"rounds-{tag}.csv"
        assert main([
            "simulate", "--strategy", "substitute", "--rounds", "300",
            "--seed", "11", "--output", str(report_path),
            "--transcript", str(transcript),
        ]) == 0
        outputs.append((read_bytes(report_path), read_bytes(transcript)))
    assert outputs[0] == outputs[1]

    other = tmp_path / "report-c.txt"
    assert main(["simulate", "--strategy", "substitute", "--rounds", "300",
                 "--seed", "12", "--output", str(other)]) == 0
    assert read_bytes(other) != outputs[0][0]


def test_seed_env_variable(tmp_path, monkeypatch):
    via_env = tmp_path / "env.txt"
    via_flag = tmp_path / "flag.txt"
    monkeypatch.setenv(SEED_ENV_VAR, "21")
    assert main(["simulate", "--rounds", "100", "--output", str(via_env)]) == 0
    monkeypatch.delenv(SEED_ENV_VAR)
    assert main(["simulate", "--rounds", "100", "--seed", "21",
                 "--output", str(via_flag)]) == 0
    assert read_bytes(via_env) == read_bytes(via_flag)
    assert read_report(via_env)["seed"] == "21"


def test_seed_env_variable_must_be_integer(tmp_path, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["simulate", "--rounds", "10",
                     "--output", str(tmp_path / "r.txt")]) == 1
    assert SEED_ENV_VAR in err.getvalue()


def test_exact_symmetric_closed_form_agrees(tmp_path):
    out = tmp_path / "exact.txt"
    assert main(["exact", "--dim", "5", "--output", str(out)]) == 0
    report = read_report(out)
    assert report["strategy"] == "intercept-resend-conditional"
    assert float(report["value"]) == pytest.approx(17 / 25, abs=1e-12)
    assert float(report["closed_form"]) == pytest.approx(17 / 25, abs=1e-12)
    assert "contribution_0" in report and "contribution_24" in report


def test_exact_parameterized_closed_form(tmp_path):
    out = tmp_path / "exact.txt"
    assert main(["exact", "--params", SKEWED, "--output", str(out)]) == 0
    report = read_report(out)
    values = [complex(p) for p in SKEWED.split(",")]
    expected = p3_formula(SetParameters(*values))
    assert float(report["value"]) == pytest.approx(expected, abs=1e-12)
    assert float(report["closed_form"]) == pytest.approx(expected, abs=1e-12)


def test_exact_substitute_closed_form(tmp_path):
    out = tmp_path / "exact.txt"
    assert main(["exact", "--dim", "4", "--strategy", "substitute",
                 "--output", str(out)]) == 0
    report = read_report(out)
    assert float(report["value"]) == pytest.approx(0.25, abs=1e-12)
    assert float(report["closed_form"]) == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("set_args, strategy, closed", [
    (["--params", SKEWED], "substitute", repr(1 / 3)),
    (["--params", SKEWED], "complementary", "n/a"),
    (["--set-file", "{set_file}"], "substitute", "0.25"),
    (["--set-file", "{set_file}"], "intercept", "n/a"),
])
def test_exact_closed_form_off_the_family(tmp_path, set_args, strategy, closed):
    set_file = tmp_path / "set.json"
    set_file.write_text(stateset_to_text(build_symmetric(4)), encoding="utf-8")
    out = tmp_path / "exact.txt"
    argv = ["exact", *(a.format(set_file=set_file) for a in set_args), "--strategy", strategy]
    assert main(argv + ["--output", str(out)]) == 0
    assert read_report(out)["closed_form"] == closed


def test_complementary_closed_form_is_its_exact_value_on_the_family(tmp_path):
    sweep = tmp_path / "sweep.csv"
    assert main(["sweep", "--max-dim", "15", "--strategy", "complementary",
                 "--exact-budget", "0", "--output", str(sweep)]) == 0
    rows = [line.split(",") for line in sweep.read_text(encoding="utf-8").splitlines()[1:]]
    assert [int(row[0]) for row in rows] == list(range(3, 16))
    for row in rows:
        out = tmp_path / f"exact-{row[0]}.txt"
        assert main(["exact", "--dim", row[0], "--strategy", "complementary",
                     "--output", str(out)]) == 0
        report = read_report(out)
        assert report["closed_form"] == row[3]
        assert abs(float(row[3]) - float(report["value"])) < 1e-12


def test_sweep_csv_shape(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--max-dim", "7", "--output", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ("n,strategy,exact,closed_form,gap_to_half,"
                        "mc_estimate,ci_low,ci_high,trials,seed")
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "3" and first[1] == "intercept-resend-conditional"
    assert float(first[2]) == pytest.approx(7 / 9, abs=1e-12)
    assert first[5] == "" and first[6] == "" and first[7] == ""
    assert first[8] == "0"


def test_sweep_with_trials(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--max-dim", "4", "--trials", "300", "--seed", "8",
                 "--output", str(out)]) == 0
    for line in out.read_text(encoding="utf-8").splitlines()[1:]:
        cols = line.split(",")
        assert float(cols[6]) <= float(cols[5]) <= float(cols[7])
        assert cols[8] == "300" and cols[9] == "8"


def test_sweep_respects_exact_budget(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--max-dim", "6", "--exact-budget", "4",
                 "--output", str(out)]) == 0
    rows = {line.split(",")[0]: line.split(",")
            for line in out.read_text(encoding="utf-8").splitlines()[1:]}
    assert rows["4"][2] != ""
    assert rows["5"][2] == "" and rows["6"][2] == ""
    assert float(rows["5"][4]) == pytest.approx(float(rows["5"][3]) - 0.5)


def test_demo_is_deterministic_text():
    captures = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["demo", "--seed", "6"]) == 0
        captures.append(buf.getvalue())
    assert captures[0] == captures[1]
    text = captures[0]
    assert "nine orthogonal two-particle product states" in text
    assert "prepared label 2" in text
    assert "survives a checked round" in text
    assert "0.777778" in text


def _demo_text(seed):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["demo", "--seed", str(seed)]) == 0
    return buf.getvalue()


def _hooks_demo_text(seed):
    # the demo's narration, built from the per-leg hooks on round 0's stream
    s = build_3x3()

    def ket(amps):
        return " + ".join(f"({z.real:+.4f}{z.imag:+.4f}j)|{k}>" for k, z in enumerate(amps) if abs(z) > 1e-12)

    def dist(probs):
        return ", ".join(f"P({m})={p:.4f}" for m, p in enumerate(probs) if p > 1e-12)

    prepared, strategy, rng = s[2], ConditionalInterceptResend(s), RngStream(seed, 0)
    rnd = strategy.begin_round(0)
    forwarded_a = strategy.first_leg(rnd, prepared.ket_a, rng)
    forwarded_b = strategy.second_leg(rnd, prepared.ket_b, rng)
    exact = exact_undetected_prob(s, "intercept").value
    return "\n".join([
        "balanced 3x3 set: nine orthogonal two-particle product states",
        *(f"  state {st.index}:  A = {ket(st.ket_a.amps)}   B = {ket(st.ket_b.amps)}" for st in s),
        "",
        f"one intercept-resend round, prepared label 2 (seed {seed})",
        "  leg 1: attacker measures A in the computational basis: "
        + dist(born_probabilities(prepared.ket_a, MeasurementBasis.computational(3))),
        f"  leg 1: outcome {rnd.a_outcome}, forwards {ket(forwarded_a.amps)}",
        f"  leg 2: basis matched to outcome {rnd.a_outcome}:",
        *(f"         {ket(v.amps)}" for v in conditional_b_basis(s, rnd.a_outcome).vectors),
        f"  leg 2: outcome {rnd.b_outcome}, forwards {ket(forwarded_b.amps)}",
        f"  attacker guesses label {strategy.finish_round(rnd).inferred_state}",
        "  receiver's joint measurement: "
        + dist(born_probabilities(tensor(forwarded_a, forwarded_b), bob_basis(s))),
        f"  averaged over everything, this attack survives a checked round with probability {exact:.6f}",
        ""])


@settings(max_examples=25, deadline=None)
@given(seed=hst.integers(0, 2**64 - 1))
@example(seed=0)
@example(seed=5)
@example(seed=2**64 - 1)
def test_demo_narrates_the_round_the_hooks_play(seed):
    assert _demo_text(seed) == _hooks_demo_text(seed)


def test_demo_plays_its_round_without_the_hooks(monkeypatch):
    calls = []
    for hook in ("begin_round", "first_leg", "second_leg", "finish_round"):
        real = getattr(EveStrategy, hook)
        monkeypatch.setattr(EveStrategy, hook,
                            lambda *args, _hook=hook, _real=real: calls.append(_hook) or _real(*args))
    _demo_text(3)
    assert calls == []
    _hooks_demo_text(3)  # the spies do see a round played through the hooks
    assert calls == ["begin_round", "first_leg", "second_leg", "finish_round"]


def test_simulate_set_file_round_trip(tmp_path):
    exported = tmp_path / "set.json"
    assert main(["validate", "--dim", "3", "--export", str(exported),
                 "--output", str(tmp_path / "v.txt")]) == 0
    report_path = tmp_path / "sim.txt"
    assert main(["simulate", "--set-file", str(exported), "--rounds", "50",
                 "--seed", "1", "--output", str(report_path)]) == 0
    report = read_report(report_path)
    assert report["dim"] == "3"
    assert report["set"] == f"file:{exported}"
    assert report["mismatches"] == "0"


def test_output_files_are_replaced_atomically(tmp_path):
    target = tmp_path / "report.txt"
    target.write_text("stale", encoding="utf-8")
    assert main(["validate", "--output", str(target)]) == 0
    assert "stale" not in target.read_text(encoding="utf-8")
    leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
    assert leftovers == []


@pytest.mark.parametrize("rounds", [10**30, 3 * 10**7])
def test_simulate_refuses_rounds_beyond_memory_budget(monkeypatch, tmp_path, rounds):
    def refuse(*args, **kwargs):
        raise AssertionError("nothing should be built for a refused run")

    monkeypatch.setattr(cli, "_load_set", refuse)
    monkeypatch.setattr(cli, "run_session", refuse)
    err = io.StringIO()
    tracemalloc.start()
    with contextlib.redirect_stderr(err):
        code = main(["simulate", "--rounds", str(rounds),
                     "--transcript", str(tmp_path / "rounds.csv")])
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert code == 2
    assert peak < 2**20
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --rounds")
    assert not (tmp_path / "rounds.csv").exists()


@pytest.mark.parametrize("argv", [
    ["validate", "--dim", str(MAX_DIM + 1)],
    ["exact", "--dim", "10000"],
    ["simulate", "--dim", str(10**30), "--rounds", "10"],
    ["sweep", "--max-dim", str(10**12)],
])
def test_dimensions_beyond_memory_budget_are_refused(monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("nothing should be built for a refused dimension")

    monkeypatch.setattr(cli, "build_symmetric", refuse)
    monkeypatch.setattr(cli, "dimension_sweep", refuse)
    err = io.StringIO()
    tracemalloc.start()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert code == 2
    assert peak < 2**20
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {argv[1]} ")


def test_dimension_ceiling_is_the_memory_budget(monkeypatch):
    # 2 GiB at 128 bytes per n^4 allows n = 64 and no more.
    assert MAX_DIM == 64
    monkeypatch.setattr(cli, "dimension_sweep", lambda *args: ())
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["sweep", "--max-dim", "64"]) == 0


def _shortened_family(n):
    # The family with its outer top row tile cut short by one cell, so the
    # row and column tile lengths form different multisets.
    cellsets = []
    for tile in build_symmetric(n).layout.tiles:
        cells = list(tile.cells)
        if tile.orientation == "row" and tile.fixed_index == 0:
            cellsets.append([cells.pop()])
        cellsets.append(cells)
    return cellsets


def _one_row_tile_one_column_tile(n):
    # Symmetric under transposition, which is of the wrong cycle type, and
    # under nothing of the right one.
    return ([[(0, b) for b in range(1, n)], [(a, 0) for a in range(1, n)]]
            + [[(a, b)] for a in range(n) for b in range(n) if (a == 0) == (b == 0)])


@pytest.mark.parametrize("n, cellsets, symmetric", [
    (10, _shortened_family(10), "0"),
    (8, _one_row_tile_one_column_tile(8), "0"),
    (25, [t.cells for t in build_symmetric(25).layout.tiles], "1"),
], ids=["n10-shortened-family", "n8-one-row-one-column-tile", "n25-family"])
def test_validate_decides_relabelled_symmetry_in_bounded_time(tmp_path, n, cellsets, symmetric):
    rng = np.random.default_rng(n)
    state_set = set_from_cellsets(n, cellsets, rng.permutation(n), rng.permutation(n))
    set_file, out = tmp_path / "set.json", tmp_path / "report.txt"
    set_file.write_text(stateset_to_text(state_set), encoding="utf-8")
    start = time.perf_counter()
    main(["validate", "--set-file", str(set_file), "--output", str(out)])
    assert time.perf_counter() - start < 2.0
    assert read_report(out)["four_fold_symmetric"] == symmetric


@settings(max_examples=150, deadline=None)
@given(hst.sampled_from([9, 16, 25, 81, 625, 2**31 - 1]).flatmap(
    lambda base: hst.tuples(hst.just(base), hst.lists(hst.integers(0, base - 1), max_size=90))))
def test_key_material_matches_digit_by_digit_packing(case):
    base, digits = case
    value = 0
    for d in digits:
        value = value * base + d
    bit_count = int(math.floor(len(digits) * math.log2(base))) if digits else 0
    expected = format(value & ((1 << bit_count) - 1), f"0{bit_count}b") if bit_count else ""
    assert cli._key_material(np.array(digits, dtype=np.int64), base) == (bit_count, expected)


@pytest.mark.parametrize("argv", [
    ["validate", "--params", "1e200,0,1,0,1,0,1,0"],
    ["simulate", "--params", "1,0,1,0,1,0,1e155j,0"],
    ["exact", "--params", "1e308+1e308j,0,1,0,1,0,1,0"],
    ["validate", "--params", "nan,0,1,0,1,0,1,0"],
    ["simulate", "--params", "1,0,1,0,1,0,1,nan"],
])
def test_huge_or_nan_params_fail_the_unit_check(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == 1
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: |")
    assert lines[0].endswith(("= inf, expected 1", "= nan, expected 1"))


_FUZZ_SEEDS = hst.one_of(hst.integers(-2, 3), hst.integers(2**64 - 3, 2**64 + 1))
_FUZZ_FRACTIONS = hst.one_of(
    hst.sampled_from([0.0, 1.0, math.nan, math.inf, -math.inf]), hst.floats(-0.5, 1.5))
_FUZZ_AMPLITUDES = hst.sampled_from(
    ["0", "1", "-1", "0.6", "0.8", "0.7071067811865476", "1e200", "1e155j", "nan", "inf"])


@hst.composite
def cli_argvs(draw, missing):
    """Small, well-typed command lines for every subcommand but the file
    outputs: any seed near the ends of its range, odd check fractions,
    huge or non-finite amplitudes and a set file that does not exist."""
    command = draw(hst.sampled_from(["simulate", "exact", "sweep", "demo", "validate"]))
    seed = [f"--seed={draw(_FUZZ_SEEDS)}"]
    set_args = draw(hst.sampled_from([
        ["--dim", str(draw(hst.integers(3, 6)))],
        ["--params=" + ",".join(draw(hst.lists(_FUZZ_AMPLITUDES, min_size=8, max_size=8)))],
        ["--set-file", missing],
    ]))
    if command == "simulate":
        return [command, *set_args, *seed, "--strategy", draw(hst.sampled_from(STRATEGY_NAMES)),
                "--rounds", str(draw(hst.integers(0, 300))),
                f"--check-fraction={draw(_FUZZ_FRACTIONS)!r}"]
    if command == "exact":
        return [command, *set_args, "--strategy", draw(hst.sampled_from(ATTACK_NAMES))]
    if command == "sweep":
        return [command, *seed, "--strategy", draw(hst.sampled_from(ATTACK_NAMES)),
                "--max-dim", str(draw(hst.integers(3, 5))),
                "--trials", str(draw(hst.integers(0, 50))),
                "--exact-budget", str(draw(hst.integers(0, 5)))]
    if command == "demo":
        return [command, *seed]
    return [command, *set_args]


_MISSING_SET = os.path.join("no-such-directory", "set.json")


@settings(max_examples=200, deadline=None)
@example(argv=["validate", "--params", "1e200,0,1,0,1,0,1,0"])
@given(argv=cli_argvs(_MISSING_SET))
def test_fuzzed_command_lines_exit_cleanly(argv):
    err = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    lines = err.getvalue().splitlines()
    assert lines == [] or (len(lines) == 1 and lines[0].startswith("error: "))
