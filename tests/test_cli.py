"""Exit codes, determinism and report structure of the command line."""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from koszulmf import cli, minimal, weyl
from koszulmf.cli import main
from koszulmf.pants import MorseCriticalPoint
from koszulmf.weyl import delta_terms
from operator_oracle import mono_parity
from test_minimal import _doubled_columns


# child processes import the package from where this process found it,
# whether from an install, PYTHONPATH or pytest's configured pythonpath
_SRC = str(Path(cli.__file__).resolve().parents[1])


def run_process(cmd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def report(out):
    return json.loads(out)


def test_hkr_example(capsys):
    code, out, err = run_cli(["hkr", "--n", "2", "--r", "2", "--t", "-2"], capsys)
    assert code == 0
    doc = report(out)
    assert doc["results"]["dim"] == 1
    assert doc["command"] == "hkr"
    assert "PASS" in err


def test_usage_and_precondition_errors(capsys):
    assert run_cli(["zonotope", "--n", "0"], capsys)[0] == 2
    assert run_cli(["no-such-command"], capsys)[0] == 2
    assert run_cli(["hkr", "--n", "2"], capsys)[0] == 2  # missing required
    assert run_cli(["rnc", "--n", "1", "--pphi", "1,-2,1"], capsys)[0] == 2
    assert run_cli(["minimal-model", "--n", "1", "--a-weights", "1,1,1"],
                   capsys)[0] == 2
    assert run_cli(["hkr", "--n", "2", "--r", "2", "--t", "-2",
                    "--threads", "2"], capsys)[0] == 2  # no such option
    # every check is exact: no command takes a tolerance
    for argv in (
        ["zonotope", "--n", "2"],
        ["rnc", "--n", "1", "--pphi", "1,2,-3"],
        ["coamoeba", "--turns", "1/2,0,0"],
        ["morse", "--n", "1"],
    ):
        assert run_cli(argv + ["--tolerance", "1e-3"], capsys)[0] == 2, argv
    # coamoeba takes turns, not radians: an old radian call is refused
    assert run_cli(["coamoeba", "--theta", "3.1415926,0,0"], capsys)[0] == 2
    # mf-check decides d^2 = 0 on every Clifford monomial and takes no
    # sample count: --samples is an unknown option
    assert run_cli(["mf-check", "--n", "1", "--samples", "-3"], capsys)[0] == 2
    for argv in (
        ["pearl-degree", "--n", "1", "--k0", "-", "--inputs", "1", "2", "7"],
        ["pearl-degree", "--n", "1", "--k0", "4", "--inputs", "1", "2", "3"],
        ["pearl-degree", "--n", "0", "--k0", "-", "--inputs", "1", "2"],
        ["minimal-model", "--n", "1", "--dbar-aux", "2,1"],
        ["minimal-model", "--n", "1", "--dbar-aux", "2,1,1,1"],
        # a zero denominator is a usage error, not a failed check
        ["minimal-model", "--n", "1", "--a-weights", "1/0,1,0"],
        ["rnc", "--n", "1", "--pphi", "1/0,1,1"],
        # n = 0 would pass every rnc check vacuously
        ["rnc", "--n", "0", "--pphi", "1,-1"],
        ["coamoeba", "--turns", "nan,0,0"],
        ["coamoeba", "--turns", "inf,0"],
        ["coamoeba", "--turns", "1/0,0,0"],
        ["coamoeba", "--turns", ""],
        ["pearl-degree", "--n", "1", "--k0", "-", "--inputs", "1,1", "2", "3"],
    ):
        assert run_cli(argv, capsys)[0] == 2, argv
    assert run_cli(["coamoeba", "--turns", "0"], capsys)[0] == 0
    # a malformed number is a usage error that names its option
    for argv, option in (
        (["rnc", "--n", "1", "--pphi", "abc,1,1"], "--pphi"),
        (["rnc", "--n", "1", "--pphi", "1/0,1,1"], "--pphi"),
        (["minimal-model", "--n", "1", "--a-weights", "1/0,1,0"],
         "--a-weights"),
        (["minimal-model", "--n", "1", "--a-weights", "x,1,0"],
         "--a-weights"),
        (["minimal-model", "--n", "1", "--dbar-aux", "x,1,1"], "--dbar-aux"),
        (["minimal-model", "--n", "1", "--dbar-aux", "2,1"], "--dbar-aux"),
        # an empty list is not the default
        (["minimal-model", "--n", "1", "--a-weights", ""], "--a-weights"),
        (["minimal-model", "--n", "1", "--dbar-aux", ""], "--dbar-aux"),
        (["coamoeba", "--turns", "nan,0,0"], "--turns"),
        (["coamoeba", "--turns", "1/0,0,0"], "--turns"),
    ):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == "", argv
        assert err.startswith(f"{argv[0]}: error: {option}"), (argv, err)
    # too few partner indices is reported as a count, not as index 3 (which
    # is valid at n = 1) out of range
    code, _, err = run_cli(["minimal-model", "--n", "1", "--dbar-aux", "2,3"],
                           capsys)
    assert code == 2
    assert "needs 3 indices, got 2" in err and "out of range" not in err


def test_internal_error_exit_code(capsys, monkeypatch):
    # only ValueError and OSError are usage errors; anything else is a bug
    for exc in (
        RuntimeError("piece has cohomology dimension 2, expected 1"),
        KeyError("zdeg"),
        IndexError("list index out of range"),
    ):
        def broken(args):
            raise exc

        monkeypatch.setitem(cli._HANDLERS, "hkr", broken)
        code, out, err = run_cli(
            ["hkr", "--n", "2", "--r", "2", "--t", "-2"], capsys
        )
        assert code == 3, exc
        assert out == ""
        assert "internal error" in err


def test_report_determinism(capsys):
    argv = ["zonotope", "--n", "2"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    def strip(text):
        text, count = re.subn(r'"wall_time_seconds":[^,}]+', "", text)
        assert count == 1
        return text

    assert strip(first) == strip(second)


def test_zonotope_report(capsys):
    code, out, _ = run_cli(["zonotope", "--n", "2"], capsys)
    assert code == 0
    res = report(out)["results"]
    assert res["cell_counts"] == [14, 24, 12]
    assert res["euler_characteristic"] == 2
    assert res["homology_ranks"] == [1, 0, 1]


def test_mf_check_n1(capsys):
    code, out, _ = run_cli(["mf-check", "--n", "1"], capsys)
    assert code == 0
    res = report(out)["results"]
    assert res["delta_squared_is_w"] is True
    assert res["differential_on_generators"] is True
    assert res["differential_squared_zero"] is True
    assert res["dims_by_subset_size"] == [1, 3, 3, 1]


@pytest.mark.parametrize("n, digest", [
    (1, "6f1be1263392d9d003cb1384e609e80811d8b09fa8fa4fa05b0b3eac2684bcba"),
    (2, "4f684451d9170d634a669c758184e7e27eab2eea9ca468eeba3bef98fe94c391"),
])
def test_mf_check_report_digest(n, digest, capsys):
    # the results of the default 200-sample report, as first recorded. d^2 = 0
    # is now decided on every Clifford monomial and the report has no
    # "samples" field; with that field put back as it was recorded, every
    # other field must hash to the recording unchanged
    code, out, _ = run_cli(["mf-check", "--n", str(n)], capsys)
    assert code == 0
    results = report(out)["results"]
    assert "samples" not in results
    results = json.dumps({**results, "samples": 200}, sort_keys=True)
    assert hashlib.sha256(results.encode()).hexdigest() == digest


@pytest.mark.parametrize("n, digest", [
    (1, "6047c3de312514429c02107a71bfbfe4e92e19846ba50b62af708264dd44a2f8"),
    (2, "d9c7719d3bb1ee5684ead5bf98158114e3f6a095ef919e69b7b88392096bc33d"),
])
def test_minimal_model_report_digest(n, digest, capsys):
    # the compact results of the report, as first recorded: the tables and
    # checks it prints must stay byte-identical
    code, out, _ = run_cli(["minimal-model", "--n", str(n)], capsys)
    assert code == 0
    results = json.dumps(report(out)["results"], sort_keys=True,
                         separators=(",", ":"))
    assert hashlib.sha256(results.encode()).hexdigest() == digest


def test_mf_check_fails_on_a_wrong_delta(capsys, monkeypatch):
    # one sign flipped in the delta table mf-check squares
    def flipped(cfg):
        scale, table = delta_terms(cfg)
        (mono, c), *rest = table
        return scale, ((mono, -c), *rest)

    monkeypatch.setattr(cli, "delta_terms", flipped)
    code, out, err = run_cli(["mf-check", "--n", "1"], capsys)
    assert code == 1
    assert report(out)["results"]["delta_squared_is_w"] is False
    assert "FAIL" in err


@pytest.fixture
def fresh_tables():
    """Empty commutator tables and engines before and after the test."""
    def clear():
        weyl.commutator_table.cache_clear()
        minimal._cached_engine.cache_clear()

    clear()
    yield
    clear()


def test_mf_check_fails_on_a_flipped_commutator_sign(capsys, monkeypatch,
                                                     fresh_tables):
    # D * (delta x + (-1)^|x| x delta): the right-hand term of the graded
    # commutator with the wrong sign still squares to zero, so only the
    # check on the generators sees it
    def flipped(low, cfg):
        delta = dict(delta_terms(cfg)[1])
        out = {}
        weyl.multiply_into(out, 1, delta, {low: 1}, cfg)
        right_sign = -1 if mono_parity(low, cfg.n) else 1
        weyl.multiply_into(out, right_sign, {low: 1}, delta, cfg)
        return tuple((m - low, c) for m, c in out.items() if c)

    monkeypatch.setattr(weyl, "_commutator", flipped)
    code, out, err = run_cli(["mf-check", "--n", "1"], capsys)
    assert code == 1
    res = report(out)["results"]
    assert res["differential_on_generators"] is False
    assert res["pass"] is False
    assert "FAIL" in err


def test_mf_check_reports_d_squared_nonzero_in_a_piece(capsys, monkeypatch,
                                                       fresh_tables):
    # one entry doubled in the first multi-entry column of every piece's
    # D * d: the pieces then fail d o d = 0, a failed check (exit 1 with
    # the full report), not a usage error
    monkeypatch.setattr(minimal, "differential_columns", _doubled_columns)
    code, out, err = run_cli(["mf-check", "--n", "1"], capsys)
    assert code == 1
    res = report(out)["results"]
    assert res["differential_squared_zero"] is False
    assert res["pass"] is False
    assert None in [dim for _, dim in res["piece_dims"]]
    assert "FAIL" in err and "error" not in err


def test_minimal_model_exits_3_when_maps_do_not_compose_to_zero(
        capsys, monkeypatch, fresh_tables):
    # the same corrupted D * d in minimal-model: a contraction's
    # d_out o d_in != 0 check fails, an internal error naming the piece
    monkeypatch.setattr(minimal, "differential_columns", _doubled_columns)
    code, out, err = run_cli(["minimal-model", "--n", "1"], capsys)
    assert code == 3
    assert out == ""
    assert re.search(r"internal error: RuntimeError: piece .*: "
                     r"d_out o d_in != 0", err)


def _floats(node):
    """The floats anywhere in a decoded JSON value."""
    if isinstance(node, float):
        yield node
    elif isinstance(node, dict):
        for value in node.values():
            yield from _floats(value)
    elif isinstance(node, list):
        for value in node:
            yield from _floats(value)


def test_morse_and_coamoeba_and_pearl(capsys):
    code, out, _ = run_cli(["morse", "--n", "1"], capsys)
    assert code == 0
    doc = report(out)
    res = doc["results"]
    assert res["count"] == 6
    assert res["index_histogram"] == [3, 3]
    assert res["gradient_zero_exactly"] is True
    assert res["critical_points"][0] == {
        "subset": [1], "coords": ["-1/1", "1/2", "1/2"], "index": 1}
    assert doc["parameters"] == {"n": 1}
    assert not list(_floats(res))
    for n in (2, 3, 4):
        code, out, _ = run_cli(["morse", "--n", str(n)], capsys)
        assert code == 0
        assert report(out)["results"]["gradient_zero_exactly"] is True

    for turns, label in (
        ("1/2,0,0", "boundary"),
        ("0,1/3,2/3", "interior"),
        ("0,1/3,-1/3", "interior"),
        ("0,1/1000000000000,1/2", "boundary"),
        ("0,1/1000000000000,499999999999/1000000000000", "outside"),
        ("1/2,1/2,0", "boundary"),
        ("0.25,0,0.125", "outside"),
    ):
        code, out, _ = run_cli(["coamoeba", "--turns", turns], capsys)
        assert code == 0
        doc = report(out)
        assert doc["results"]["classification"] == label, turns
        assert doc["parameters"] == {"turns": turns}
        assert not list(_floats(doc["results"]))
    code, out, _ = run_cli(["coamoeba", "--turns", "3/2,0,-1"], capsys)
    assert report(out)["results"]["turns"] == ["3/2", "0/1", "-1/1"]

    code, out, _ = run_cli(
        ["pearl-degree", "--n", "1", "--k0", "-", "--inputs", "1", "2", "3"],
        capsys,
    )
    assert code == 0
    res = report(out)["results"]
    assert res["degree"] == "1/1"
    assert res["integer"] is True


def test_morse_fails_on_a_point_with_three_values(capsys, monkeypatch):
    # coordinates -1, 0, 1 sum to zero but take three values, so the
    # gradient there need not vanish: the certificate must not hold
    real = cli.morse_data

    def skewed(n):
        points = real(n)
        pt = points[0]
        points[0] = MorseCriticalPoint(pt.kmask, (-F(1), F(0), F(1)), pt.index)
        return points

    monkeypatch.setattr(cli, "morse_data", skewed)
    code, out, err = run_cli(["morse", "--n", "1"], capsys)
    assert code == 1
    res = report(out)["results"]
    assert res["gradient_zero_exactly"] is False
    assert res["index_histogram"] == res["expected_histogram"]
    assert res["pass"] is False and "FAIL" in err


def test_validate_labels_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(
        {"n": 1, "pearls": [{"flips": [[1], [2], [3]], "degree": 1}]}
    ))
    code, out, _ = run_cli(["validate-labels", "--file", str(good)], capsys)
    assert code == 0
    assert report(out)["results"]["issues"] == []

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"n": 1, "pearls": [{"flips": [[1], [2], [3]], "degree": -1}]}
    ))
    code, out, _ = run_cli(["validate-labels", "--file", str(bad)], capsys)
    assert code == 1
    assert report(out)["results"]["issues"]


def _assert_names_missing_key(cases, doc, err):
    """For a document of cases (key, document lacking it), the error names the key."""
    for key, missing in cases:
        if missing == doc:
            assert f"key {key!r}" in err


_LABELS_MISSING_KEY = [
    ("n", {"pearls": []}),
    ("flips", {"n": 1, "pearls": [{"degree": 1}]}),
    ("degree", {"n": 1, "pearls": [{"flips": [[1], [2], [3]]}]}),
]

_MODEL_HEAD = {"schema": "koszulmf-model/1", "n": 1,
               "weights": ["1/3", "1/3", "1/3"], "aux": [2, 1, 1]}
# the gradings `minimal-model --n 1` writes for [1], its weight as
# another representative of the class (0, 1, 1)
_GENERATOR = {"subset": [1], "zdeg": 3, "qdeg": "1/3", "weight": [-1, 0, 0]}

_MODEL_MISSING_KEY = [
    ("tables", dict(_MODEL_HEAD, generators=[])),
    ("generators", dict(_MODEL_HEAD, tables={})),
    ("zdeg", dict(_MODEL_HEAD, tables={}, generators=[
        {k: v for k, v in _GENERATOR.items() if k != "zdeg"}
    ])),
    ("n", {k: v for k, v in dict(_MODEL_HEAD, generators=[_GENERATOR],
                                 tables={}).items() if k != "n"}),
]


@pytest.mark.parametrize("doc", [
    {"n": 1, "pearls": [{"flips": [1, 2, 3], "degree": 1}]},
    {"n": "1", "pearls": [{"flips": [[1], [2], [3]], "degree": 1}]},
    {"n": 1, "pearls": [{"flips": [[1], [2], [3]], "degree": "1"}]},
    {"n": 1, "pearls": [{"flips": [[4], [4]], "degree": 2}]},  # no index 4
    {"n": 1, "pearls": [[[1], [2], [3]]]},
    [{"n": 1}],
    {"n": 1, "pearls": [{"flips": [[1, 1], [2], [3]], "degree": 1}]},
    *(doc for _, doc in _LABELS_MISSING_KEY),
])
def test_validate_labels_rejects_malformed_input(doc, tmp_path, capsys):
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["validate-labels", "--file", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert "error" in err
    _assert_names_missing_key(_LABELS_MISSING_KEY, doc, err)


def test_rnc_report(capsys):
    code, out, _ = run_cli(["rnc", "--n", "1", "--pphi", "1,2,-3"], capsys)
    assert code == 0
    res = report(out)["results"]
    assert res["nodes"] == ["3/1", "3/2", "-1/1"]
    assert res["interpolates_coordinate_points"] is True
    assert res["anchor_at_zero"] is True
    assert res["cleared_degrees"] == [1, 1, 1]
    roots = [c["roots"] for c in res["crossings"]]
    assert all(len(r) == 1 for r in roots)
    for got, root in zip(roots, (9 / 11, 9, 27 / 13)):
        assert abs(got[0] - root) < 1e-9
    assert [c["derivative_signs"] for c in res["crossings"]] == [[1]] * 3
    assert "tolerance" not in res
    assert "tolerance" not in report(out)["parameters"]


def test_rnc_fails_on_a_negative_crossing(capsys, monkeypatch):
    real = cli.crossing_positivity

    def flipped(curve):
        reps = real(curve)
        reps[0].derivative_signs = [-s for s in reps[0].derivative_signs]
        return reps

    monkeypatch.setattr(cli, "crossing_positivity", flipped)
    code, out, _ = run_cli(["rnc", "--n", "1", "--pphi", "1,2,-3"], capsys)
    assert code == 1
    res = report(out)["results"]
    assert res["interpolates_coordinate_points"] and res["anchor_at_zero"]
    assert res["crossings"][0]["derivative_signs"] == [-1]


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "model_n1.json"
    proc = run_process(
        [sys.executable, "-m", "koszulmf.cli", "minimal-model", "--n", "1"]
    )
    assert proc.returncode == 0
    path.write_text(proc.stdout)
    return path


def test_minimal_model_report(model_file):
    doc = json.loads(model_file.read_text())
    checks = doc["results"]["checks"]
    assert doc["results"]["pass"] is True
    assert checks["stasheff_violations"] == []
    assert checks["supercommutative"] is True
    assert checks["graded"] is True
    assert checks["obstruction_class"] == "-1/1"
    assert checks["obstruction_is_unit"] is True
    assert sorted(checks["permutation_table"]) == [
        [[2, 3, 1], -1, 3],
        [[3, 2, 1], -2, 3],
    ]
    tables = doc["results"]["model"]["tables"]
    assert {k: len(v) for k, v in tables.items()} == {"2": 27, "3": 68}


def test_opposite_is_involutive_through_files(model_file, tmp_path, capsys):
    code, out, _ = run_cli(["opposite", "--model", str(model_file)], capsys)
    assert code == 0
    once = tmp_path / "op.json"
    once.write_text(out)
    code, out, _ = run_cli(["opposite", "--model", str(once)], capsys)
    assert code == 0
    original = json.loads(model_file.read_text())["results"]["model"]
    assert report(out)["results"]["model"] == original


# documents where a later mu^2 table or row would replace an earlier
# one: "2" and "02" are both arity 2
_ROW = [[1], [[1], [1]], 1, 1]
_MODEL_REPEATED = [
    dict(_MODEL_HEAD, generators=[_GENERATOR], tables={"2": [_ROW], "02": []}),
    dict(_MODEL_HEAD, generators=[_GENERATOR], tables={"2": [_ROW, _ROW]}),
]
# (subset, document): a generator listed twice, one with an index above
# n+2 = 3, ones recording a zdeg, qdeg or weight other than those of
# their subset, and ones whose qdeg or weight cannot be read; the message
# names the subset
_MODEL_BAD_GENERATOR = [
    ("[1]", dict(_MODEL_HEAD, generators=[_GENERATOR, _GENERATOR], tables={})),
    ("[9]", dict(_MODEL_HEAD, generators=[dict(_GENERATOR, subset=[9])],
                 tables={})),
    *(("[1]", dict(_MODEL_HEAD, generators=[dict(_GENERATOR, **bad)], tables={}))
      for bad in ({"zdeg": 2}, {"qdeg": "2/3"}, {"weight": [5, 0, 0]},
                  {"weight": []}, {"qdeg": "abc"})),
]
# (key, document): weights that are not rationals or are missing, fewer
# than n+2 auxiliary indices, and one out of range; the message names the
# key
_MODEL_BAD_HEAD = [
    *(("weights", dict(_MODEL_HEAD, weights=bad, generators=[_GENERATOR],
                       tables={})) for bad in (["x", "y"], None)),
    *(("aux", dict(_MODEL_HEAD, aux=bad, generators=[_GENERATOR], tables={}))
      for bad in ([2, 1], [2, 4, 1])),
]


@pytest.mark.parametrize("doc", [
    [1, 2],
    {"schema": "koszulmf-model/1", "generators": [1], "tables": {}},
    {"schema": "koszulmf-model/1", "generators": 5, "tables": {}},
    {"schema": "koszulmf-model/1", "generators": [], "tables": []},
    {"schema": "koszulmf-model/1", "generators": [], "tables": {"2": [7]}},
    {"schema": "koszulmf-model/1", "generators": [],
     "tables": {"2": [[[], [[1], [2]], 1, 0]]}},
    *(doc for _, doc in _MODEL_MISSING_KEY),
    dict(_MODEL_HEAD, generators=[], tables={"2": [[[], [[1], [2]], 1, 1]]}),
    # a row whose number of inputs is not its table's arity, and an arity
    # below 1
    dict(_MODEL_HEAD, generators=[_GENERATOR],
         tables={"2": [[[1], [[1], [1], [1]], 1, 1]]}),
    dict(_MODEL_HEAD, generators=[_GENERATOR], tables={"3": [[[1], [[1], [1]], 1, 1]]}),
    dict(_MODEL_HEAD, generators=[_GENERATOR], tables={"0": []}),
    *_MODEL_REPEATED,
    *(doc for _, doc in _MODEL_BAD_GENERATOR),
    *(doc for _, doc in _MODEL_BAD_HEAD),
    # n is checked first, as a positive integer
    *(dict(_MODEL_HEAD, n=n, generators=[_GENERATOR], tables={})
      for n in (0, "1", 1.5, True)),
])
def test_model_commands_reject_malformed_file(doc, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    for argv in (["opposite"], ["smash", "--group", "3:1;1;1"]):
        code, out, err = run_cli(argv + ["--model", str(path)], capsys)
        assert (code, out) == (2, "")
        assert "error" in err
        _assert_names_missing_key(_MODEL_MISSING_KEY, doc, err)
        if doc in _MODEL_REPEATED:
            assert "mu^2" in err
        for subset, bad in _MODEL_BAD_GENERATOR:
            if doc == bad:
                assert f"generator subset {subset}" in err
        for key, bad in _MODEL_BAD_HEAD:
            if doc == bad:
                assert f"{path}: {key}" in err


def test_model_file_gradings_come_from_the_subsets(tmp_path, capsys):
    # a recorded weight may be any representative of its class; the
    # report writes the canonical one
    path = tmp_path / "model.json"
    path.write_text(json.dumps(dict(_MODEL_HEAD, generators=[_GENERATOR],
                                    tables={})))
    code, out, _ = run_cli(["opposite", "--model", str(path)], capsys)
    assert code == 0
    assert report(out)["results"]["model"]["generators"] == [
        dict(_GENERATOR, weight=[0, 1, 1])]


def test_smash_dimensions(model_file, capsys):
    code, out, _ = run_cli(
        ["smash", "--model", str(model_file), "--group", "3:1;1;1"], capsys
    )
    assert code == 0
    res = report(out)["results"]
    assert res["dimension"] == 24
    assert {k: len(v) for k, v in res["tables"].items()} == {
        "2": 27 * 9,
        "3": 68 * 27,
    }

    code, _, _ = run_cli(
        ["smash", "--model", str(model_file), "--group", "3:1;1;2"], capsys
    )
    assert code == 2  # rho rows must sum to zero mod the factors

    # one rho row per variable: n = 1 needs three
    for group in ("3:1;2", "3", "3:1;1;0;1"):
        code, out, _ = run_cli(
            ["smash", "--model", str(model_file), "--group", group], capsys
        )
        assert code == 2
        assert out == ""


def _check_hkr_process(cmd):
    proc = run_process(cmd + ["hkr", "--n", "1", "--r", "2", "--t", "-1"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["dim"] == 1


def test_console_script_entry():
    # the declared target, run as its own process the way the installed
    # wrapper runs it, and through the package's __main__
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["koszulmf"]
    assert target == "koszulmf.cli:main"
    module, func = target.split(":")
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    _check_hkr_process([sys.executable, "-c", wrapper])
    _check_hkr_process([sys.executable, "-m", module.split(".")[0]])


@pytest.mark.skipif(
    shutil.which("koszulmf") is None, reason="koszulmf script not installed"
)
def test_installed_console_script():
    _check_hkr_process(["koszulmf"])
