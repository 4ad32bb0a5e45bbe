"""Front-end behavior: flows, artifacts, exit codes, value parsing."""

import argparse
import csv
import dataclasses
import json
import logging
import math
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from transasym import cli, validate, walk
from transasym.cli import RunConfig, _complex, _dump_json, _int_range, main
from transasym.expansion import build_expansion
from transasym.singular import continue_f0
from transasym.systems import builtin


def test_complex_parsing():
    assert _complex("1.5,-2") == 1.5 - 2j
    assert _complex("3") == 3.0 + 0j
    with pytest.raises(argparse.ArgumentTypeError):
        _complex("a,b")
    with pytest.raises(argparse.ArgumentTypeError):
        _complex("1,2,3")


@pytest.mark.parametrize("argv, value", [
    (["predict", "p1", "--C", "nan", "--n", "8"], "nan"),
    (["expand", "p2a", "--alpha", "inf", "--M", "1", "--K", "8"], "inf"),
    (["continue", "abel", "--path", "nan", "0.1"], "nan"),
], ids=["predict", "expand", "continue"])
def test_a_complex_flag_that_is_not_finite_is_a_usage_error(tmp_path, monkeypatch, capsys,
                                                             argv, value):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    assert f"expected a finite value, got '{value}'" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_range_parsing():
    assert _int_range("3..6") == (3, 4, 5, 6)
    assert _int_range("7") == (7,)
    with pytest.raises(argparse.ArgumentTypeError):
        _int_range("6..3")
    with pytest.raises(argparse.ArgumentTypeError):
        _int_range("x..y")


def test_system_listing(capsys):
    assert main(["system"]) == 0
    out = capsys.readouterr().out.split()
    assert out == ["abel", "p1", "p2a", "p2b"]


def test_system_dump_is_json(capsys):
    assert main(["system", "p1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["label"] == "p1"


def test_expand_then_eval(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["expand", "p1", "--M", "2", "--K", "64"]) == 0
    assert (tmp_path / "expansion.json").exists()
    capsys.readouterr()
    assert main(["eval", "--xi", "6", "--m", "0"]) == 0
    assert capsys.readouterr().out.strip() == "24,0"
    assert main(["eval", "--C", "12", "--x", "30"]) == 0
    assert "bound" in capsys.readouterr().out


def test_eval_refuses_a_point_outside_the_profile_disk(tmp_path, monkeypatch, capsys):
    # p1's F_0 has radius 12, so its Taylor row cannot be summed at 100
    monkeypatch.chdir(tmp_path)
    assert main(["expand", "p1", "--M", "2", "--K", "32"]) == 0
    capsys.readouterr()
    assert main(["eval", "--xi", "100"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "outside the disk" in captured.err


def test_expand_refuses_an_overflowing_profile(tmp_path, monkeypatch, capsys):
    # Abel's F_0 coefficients grow like 0.233^-k and leave double range at order 487;
    # F_2 leaves it at order 480, while F_0 and F_1 are still finite
    monkeypatch.chdir(tmp_path)
    for M, K, message in (("0", "700", "F_0 is not finite from order 487"),
                          ("2", "486", "F_2 is not finite from order 480")):
        assert main(["expand", "abel", "--M", M, "--K", K]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "expansion.json").exists()


def test_eval_needs_a_mode(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    main(["expand", "p1", "--M", "0", "--K", "8"])
    assert main(["eval"]) == 1
    assert "--xi" in capsys.readouterr().err
    # --xi evaluates a level profile alone; --C and --x beside it would go unread
    assert main(["eval", "--xi", "6", "--C", "12", "--x", "30"]) == 1
    assert "--xi alone" in capsys.readouterr().err


def test_eval_refuses_a_level_beside_the_two_scale_sum(tmp_path, monkeypatch, capsys):
    # --m picks the level --xi reads; the sum at --C and --x would ignore it
    monkeypatch.chdir(tmp_path)
    main(["expand", "p1", "--M", "2", "--K", "32"])
    capsys.readouterr()
    assert main(["eval", "--C", "12", "--x", "30,40", "--m", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "--m picks the level --xi reads" in captured.err
    assert main(["eval", "--xi", "6"]) == 0  # without --m, --xi reads level 0
    level0 = capsys.readouterr().out
    assert main(["eval", "--xi", "6", "--m", "0"]) == 0
    assert capsys.readouterr().out == level0


@pytest.mark.parametrize("argv", [["--xi", "0.1", "--m", "9"], ["--xi", "0.1", "--m", "-1"]])
def test_eval_rejects_a_level_outside_the_expansion(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(["expand", "p1", "--M", "2", "--K", "32"]) == 0
    capsys.readouterr()
    assert main(["eval", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("transasym: ") and "0..2" in err and "Traceback" not in err


def test_unmatched_run_writes_strict_json(tmp_path, monkeypatch, capsys):
    # every pole is reported 1.5 from its target, beyond the capture radius
    # of 1, so nothing matches and max and median distance are not finite
    monkeypatch.chdir(tmp_path)
    hunts = validate._hunts

    def astray(*args, **kwargs):
        return [dataclasses.replace(o, location=o.location + 1.5) for o in hunts(*args, **kwargs)]

    monkeypatch.setattr(validate, "_hunts", astray)
    assert main(["validate", "p1", "--C", "12", "--n", "8..9"]) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    run = json.loads((tmp_path / "run.json").read_text(), parse_constant=reject)
    stats = run["comparison"]["stats"]
    assert stats["n_pairs"] == 0
    assert stats["max_distance"] is None and stats["median_distance"] is None


@pytest.mark.parametrize("flag, dest, named", [
    ("--out", "absent/run.json", "absent"),
    ("--csv-dir", "absent", "absent"),
    ("--csv-dir", "run.json", "run.json"),   # a file, not a directory
], ids=["out", "csv-dir", "csv-dir-file"])
def test_validate_refuses_an_unwritable_destination_before_hunting(
        tmp_path, monkeypatch, capsys, flag, dest, named):
    monkeypatch.chdir(tmp_path)

    def hunts(*args, **kwargs):
        raise AssertionError("hunted before the destination was checked")

    monkeypatch.setattr(validate, "_hunts", hunts)
    if dest == "run.json":
        (tmp_path / "run.json").write_text("")
    before = sorted(tmp_path.iterdir())
    assert main(["validate", "p1", "--C", "12", "--n", "8..9", flag, dest]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"transasym: {named} is not a writable directory\n"
    assert sorted(tmp_path.iterdir()) == before


def test_predict_artifacts_are_reproducible(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["predict", "p1", "--C", "12", "--n", "8..10"]
    assert main(argv + ["--out", "a.json"]) == 0
    assert main(argv + ["--out", "b.json"]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    arr = json.loads((tmp_path / "a.json").read_text())
    assert len(arr["entries"]) == 3


def test_predict_rejects_zero_constant(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["predict", "p1", "--C", "0", "--n", "3"]) == 2
    assert "transasym:" in capsys.readouterr().err


def _overflow(*args, **kwargs):
    raise OverflowError("math range error")


@pytest.mark.parametrize("argv, message, broken, config", [
    # an ArithmeticError from any callee is a domain error too
    (["predict", "p1", "--C", "12", "--n", "1"], "math range error", "predict_array", None),
    # a usage error found after parsing is a ValueError and exits 2 as well: here an
    # unknown label, read from a config
    (["validate", "--config", "cfg.json"],
     "RunConfig label must be one of abel, p1, p2a, p2b, got 'nope'", None,
     {"label": "nope", "C": [12.0, 0.0], "n_range": [8, 9]}),
], ids=["overflow", "unknown-label"])
def test_a_domain_error_exits_two_with_one_line(tmp_path, monkeypatch, capsys, argv, message,
                                                broken, config):
    monkeypatch.chdir(tmp_path)
    if broken is not None:
        monkeypatch.setattr(cli, broken, _overflow)
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("transasym: ") and message in err and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ([] if config is None else ["cfg.json"])


def test_validate_surveys_a_small_constant(tmp_path, monkeypatch, capsys):
    # |C| = 1e-3 keeps |xi| below 1e-3 all along the ray arg x = 1.2; each
    # hunt still seeds at its own staging point, 2.0 from its target
    monkeypatch.chdir(tmp_path)
    assert main(["validate", "p1", "--C", "1e-3", "--n", "8..12"]) == 0
    assert "5/5 matched" in capsys.readouterr().out
    comparison = json.loads((tmp_path / "run.json").read_text())["comparison"]
    assert comparison["stats"]["max_distance"] < 0.05
    assert comparison["unmatched_predictions"] == comparison["unmatched_observations"] == []


def test_predict_solves_where_e_to_the_minus_x_overflows(tmp_path, monkeypatch, capsys):
    # |C| = 1e-320 puts the root near Re x = log|C| - log xi_s = -740, where
    # e^{-x} x^{alpha_1} overflows on its own though C e^{-x} x^{alpha_1} does not
    mpmath = pytest.importorskip("mpmath")
    monkeypatch.chdir(tmp_path)
    assert main(["predict", "p1", "--C", "1e-320", "--n", "1", "--out", "a.json"]) == 0
    arr = json.loads((tmp_path / "a.json").read_text())
    (entry,) = arr["entries"]
    assert entry["x_ref"] is not None and entry["x_ref"][0] < -709
    xi_s, alpha1 = complex(*arr["xi_s"]), complex(*arr["alpha1"])
    with mpmath.workdps(40):
        x = mpmath.mpc(*entry["x_ref"])
        xi = mpmath.mpf(1e-320) * mpmath.exp(-x + alpha1 * mpmath.log(x))
        assert abs(xi - xi_s) <= 1e-12 * max(1.0, abs(xi_s))


def test_continue_writes_samples(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["continue", "abel", "--path", "0.02", "0.12"]) == 0
    lines = (tmp_path / "continuation.csv").read_text().splitlines()
    assert lines[0] == "xi_re,xi_im,F1_re,F1_im"
    assert len(lines) > 2


def test_validate_flow_and_config_round_trip(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["validate", "p1", "--C", "12", "--n", "8",
               "--emit-config", "cfg.json"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "n = 8: predicted" in out and "1/1 matched" in out
    assert json.loads((tmp_path / "run.json").read_text())["system"] == "p1"
    cfg = RunConfig.from_dict(json.loads((tmp_path / "cfg.json").read_text()))
    assert cfg.label == "p1" and cfg.C == 12.0 + 0j and cfg.n_range == (8,)
    _dump_json(cfg.to_dict(), "cfg2.json")
    assert (tmp_path / "cfg.json").read_bytes() == (tmp_path / "cfg2.json").read_bytes()
    # replaying the config reproduces the artifact; --out overrides the
    # destination recorded inside it
    assert main(["validate", "--config", "cfg.json", "--out", "run2.json",
                 "--emit-config", "cfg3.json"]) == 0
    assert (tmp_path / "run.json").read_bytes() == (tmp_path / "run2.json").read_bytes()
    assert json.loads((tmp_path / "cfg3.json").read_text())["out"] == "run2.json"


def test_validate_without_plan_is_domain_error(capsys):
    assert main(["validate"]) == 2
    assert "transasym:" in capsys.readouterr().err


def test_missing_input_file_is_domain_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["eval", "--xi", "1", "--in", "absent.json"]) == 2


def test_unknown_flag_exits_one(capsys):
    for argv in (["predict", "p1", "--C", "1", "--n", "3", "--frobnicate"],
                 # retired: the C ladder's level and the continuation's seed order are fixed
                 ["validate", "p1", "--n", "8", "--k-max", "14"],
                 ["continue", "abel", "--path", "0.02", "0.12", "--seed-order", "40"],
                 # retired: predict solves at the system's own xi_s hint and alpha_1
                 ["predict", "p1", "--C", "12", "--n", "8", "--xi-s", "3"],
                 ["predict", "p1", "--C", "12", "--n", "8", "--alpha1", "0"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1


@pytest.mark.parametrize("argv, dest, value", [
    (["predict", "p1", "--C", "-12,1", "--n", "8..9"], "C", -12 + 1j),
    (["predict", "p1", "--C", "12", "--n", "-16..-8"], "n", tuple(range(-16, -7))),
    (["eval", "--xi", "-0.1,0.1", "--m", "0"], "xi", -0.1 + 0.1j),
    (["continue", "abel", "--path", "0.1", "0.2,0.1", "-0.1,0.15"], "path",
     [0.1, 0.2 + 0.1j, -0.1 + 0.15j]),
], ids=["predict-C", "predict-n", "eval-xi", "continue-path"])
def test_a_value_that_starts_with_a_minus_sign_is_a_value(tmp_path, monkeypatch, capsys,
                                                          argv, dest, value):
    assert getattr(cli._build_parser().parse_args(argv), dest) == value
    monkeypatch.chdir(tmp_path)
    if argv[0] == "eval":
        assert main(["expand", "p1", "--M", "2", "--K", "32"]) == 0
    assert main(argv) == 0


def test_an_unknown_short_option_exits_one_with_the_usage_line(capsys):
    with pytest.raises(SystemExit) as info:
        main(["predict", "p1", "--C", "12", "--n", "8", "-z"])
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: transasym") and "unrecognized arguments: -z" in err


def test_one_parser_per_process():
    # importing the front end builds no parser, and a second main() reuses the first's
    script = """
import argparse, contextlib, io
built, init = [], argparse.ArgumentParser.__init__

def counting(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counting
from transasym import cli
assert built == [], built
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["system"]) == 0
    first = list(built)
    assert cli.main(["system", "p1"]) == 0
assert built == first and first.count("transasym") == 1, built
"""
    env = dict(os.environ)
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_report_single_criterion(capsys):
    assert main(["report", "--criterion", "2"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "singular-scale correction" in out
    assert "1/1 checks passed" in out


def test_precision_is_a_flag_of_expand_and_validate(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # neither --precision nor the former reserved --seed is a top-level flag
    for argv in (["--precision", "extended", "system"], ["--seed", "1", "system"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
    assert main(["expand", "p1", "--M", "2", "--K", "32",
                 "--precision", "extended"]) == 0
    assert (tmp_path / "expansion.json").exists()


@pytest.mark.parametrize("key, value", [("rel_tol", 1e-10), ("k_max", 14), ("capture", 1.0)],
                         ids=["rel_tol", "k_max", "capture"])
def test_config_with_retired_tolerances_exits_two(tmp_path, monkeypatch, capsys, key, value):
    monkeypatch.chdir(tmp_path)
    cfg = RunConfig("p1", C=12.0, n_range=(8,)).to_dict()
    cfg[key] = value
    (tmp_path / "old.json").write_text(json.dumps(cfg))
    with pytest.raises(ValueError, match=key):
        RunConfig.from_dict(cfg)
    assert main(["validate", "--config", "old.json"]) == 2
    assert f"unknown RunConfig keys: {key}" in capsys.readouterr().err


@pytest.mark.parametrize("flags, named", [
    (["p1"], "the label"), (["--C", "5"], "--C"), (["--n", "3..4"], "--n"),
    (["--M", "3"], "--M"), (["--K", "16"], "--K"),
    (["--extract"], "--extract"), (["--precision", "double"], "--precision"),
], ids=["label", "C", "n", "M", "K", "extract", "precision"])
def test_config_refuses_run_flags(tmp_path, monkeypatch, capsys, flags, named):
    # the file holds the whole run; a flag beside it would otherwise be dropped
    monkeypatch.chdir(tmp_path)
    _dump_json(RunConfig("p1", C=12.0, n_range=(8,)).to_dict(), "cfg.json")
    assert main(["validate", "--config", "cfg.json", *flags]) == 1
    assert f"--config takes no run flags, got {named}" in capsys.readouterr().err
    assert not (tmp_path / "run.json").exists()


@pytest.mark.parametrize("key, value", [
    ("M", 2.5), ("K", True), ("n_range", [8.7, 9]), ("n_range", [8, False]), ("n_range", 8),
    ("n_range", []), ("C", [math.nan, 0.0]), ("C", [math.inf, 0.0]), ("C", 5), ("C", [12, 0, 1]),
    ("C", ["x"]), ("C", [12]), ("C", [True, 0]), ("extract", "no"), ("extract", 1),
    ("csv_dir", 5),
], ids=["M-float", "K-bool", "n-float", "n-bool", "n-int", "n-empty", "C-nan", "C-inf", "C-int",
        "C-three", "C-str", "C-one", "C-bool", "extract-str", "extract-int", "csv-dir-int"])
def test_config_values_get_the_flags_checks(tmp_path, monkeypatch, capsys, key, value):
    monkeypatch.chdir(tmp_path)
    cfg = RunConfig("p1", C=12.0, n_range=(8,)).to_dict()
    cfg[key] = value
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["validate", "--config", "cfg.json"]) == 2
    err = capsys.readouterr().err
    assert f"RunConfig {key} must be" in err and "Traceback" not in err
    assert not (tmp_path / "run.json").exists()


@pytest.mark.parametrize("argv, artifact, named", [
    (["validate", "--config", "a.json"], {"label": "p1"}, "missing RunConfig keys: C, n_range"),
    (["eval", "--xi", "1", "--in", "a.json"], {"label": "p1"}, "missing expansion keys: system"),
    (["eval", "--xi", "1", "--in", "a.json"],
     {"system": {"label": "p1"}, "fm": [], "free_constants": [], "K": 1},
     "missing system keys: lambda, alpha, germ"),
    (["eval", "--xi", "1", "--in", "a.json"],
     {"system": {"lambda": [[1, 0]], "alpha": [[0, 0]], "germ": {}},
      "fm": [], "free_constants": [], "K": 1},
     "missing germ keys: dims, terms"),
    (["eval", "--xi", "1", "--in", "a.json"],
     {"system": {"lambda": [[1, 0]], "alpha": [[0, 0]],
                 "germ": {"dims": 1, "terms": [{"i": 0, "k": [2]}]}},
      "fm": [], "free_constants": [], "K": 1},
     "missing germ term keys: c"),
    (["eval", "--xi", "1", "--in", "a.json"],
     {"system": {"lambda": [[1, 0]], "alpha": [[0, 0]], "germ": {"dims": 1, "terms": []}},
      "fm": [[{"coeffs": [[1, 0]]}]], "free_constants": [], "K": 1},
     "missing Taylor row keys: truncation"),
    # "K" edited away from the order its rows were built to
    (["eval", "--xi", "1", "--in", "a.json"],
     {"system": {"lambda": [[1, 0]], "alpha": [[0, 0]], "germ": {"dims": 1, "terms": []}},
      "fm": [[{"coeffs": [[1, 0], [0, 0], [0, 0]], "truncation": 2}]], "free_constants": [],
      "K": 20},
     "expansion K = 20, but its Taylor rows have order 2"),
    # level 1's row edited to one coefficient fewer than its "truncation" says
    (["eval", "--xi", "1", "--in", "a.json"],
     {"system": {"lambda": [[1, 0]], "alpha": [[0, 0]], "germ": {"dims": 1, "terms": []}},
      "fm": [[{"coeffs": [[1, 0], [0, 0], [0, 0]], "truncation": 2}],
             [{"coeffs": [[1, 0], [0, 0]], "truncation": 2}]], "free_constants": [], "K": 2},
     "Taylor row 1, 0 has 2 coefficients, but truncation 2"),
], ids=["validate-config", "eval-expansion", "eval-system", "eval-germ", "eval-germ-term",
        "eval-taylor-row", "eval-K", "eval-taylor-row-length"])
def test_json_that_lacks_a_key_exits_two(tmp_path, monkeypatch, capsys, argv, artifact, named):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.json").write_text(json.dumps(artifact))
    assert main(argv) == 2
    assert f"a.json is malformed: {named}" in capsys.readouterr().err


def _edit(path, value):
    """An edit that copies a JSON document and sets its entry at ``path`` to ``value``."""
    def apply(d):
        root = node = json.loads(json.dumps(d))
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return root
    return apply


@pytest.mark.parametrize("cmd, edit, named", [
    ("validate", _edit(["out"], 5), "RunConfig out must be a string, got 5"),
    ("validate", _edit(["out"], None), "RunConfig out must be a string, got None"),
    ("validate", _edit(["precision"], ["double"]), "RunConfig precision must be one of"),
    ("validate", lambda d: [5], "a.json is malformed"),
    ("validate", lambda d: list(d.items()), "a.json is malformed: a RunConfig is a JSON object"),
    ("eval", _edit(["K"], [8]), "a.json is malformed"),
    ("eval", _edit(["fm"], 5), "a.json is malformed: expansion fm must be a list, got 5"),
    ("eval", _edit(["fm", 0, 0, "coeffs"], 5), "a.json is malformed"),
    ("eval", _edit(["system", "lambda"], 5), "a.json is malformed"),
    ("eval", _edit(["system", "germ", "terms"], 5),
     "a.json is malformed: germ terms must be a list of objects, got 5"),
    # a container of the wrong type is named by its place in the document
    ("eval", _edit(["fm", 0], 4),
     "a.json is malformed: expansion fm level 0 must be a list, got 4"),
    ("eval", _edit(["fm", 1, 0], 3),
     "a.json is malformed: expansion fm level 1 row 0 must be an object, got 3"),
    ("eval", _edit(["system"], 5),
     "a.json is malformed: expansion system must be an object, got 5"),
    # a value its field cannot read: the one line names the file and the key
    ("eval", _edit(["K"], "x"), "a.json is malformed: expansion K must be an integer, got 'x'"),
    ("eval", _edit(["free_constants"], [[1, 2, 3]]),
     "a.json is malformed: expansion free_constants must be a list of [re, im], got [[1, 2, 3]]"),
    ("eval", _edit(["fm", 0, 0, "truncation"], "a"),
     "a.json is malformed: Taylor row 0, 0 truncation must be an integer, got 'a'"),
    # a number that is no integer is refused, not truncated
    ("eval", _edit(["K"], 4.7), "a.json is malformed: expansion K must be an integer, got 4.7"),
    ("eval", _edit(["fm", 0, 0, "truncation"], 4.2),
     "a.json is malformed: Taylor row 0, 0 truncation must be an integer, got 4.2"),
    ("eval", _edit(["system", "germ", "dims"], 2.9),
     "a.json is malformed: germ dims must be an integer, got 2.9"),
    ("eval", _edit(["system", "germ", "terms", 0, "i"], 1.5),
     "a.json is malformed: germ term i must be an integer, got 1.5"),
    ("eval", _edit(["system", "germ", "terms", 0, "k"], [0.5, 1]),
     "a.json is malformed: germ term k must be a list of integers, got [0.5, 1]"),
    # a complex value is exactly two numbers
    ("eval", _edit(["system", "xi_s_hint"], [12]),
     "a.json is malformed: system xi_s_hint must be [re, im], got [12]"),
    ("eval", _edit(["system", "lambda"], [[1, 0, 0], [-1, 0]]),
     "a.json is malformed: system lambda must be a list of [re, im], got [[1, 0, 0], [-1, 0]]"),
    ("eval", _edit(["system", "germ", "terms", 0, "c"], [[1, 2, 3], [0, 0]]),
     "a.json is malformed: germ term c must be a list of [re, im], got [[1, 2, 3], [0, 0]]"),
    # a value that disagrees with another, and a file cut short
    ("eval", _edit(["free_constants"], [[99, 0]]),
     "a.json is malformed: expansion free_constants must be fm[1:, 0, 1] = [(0.125-0j)], "
     "got [(99+0j)]"),
    ("eval", _edit(["system", "observable"], [[1, 0]]),
     "a.json is malformed: observable has 1 weights, system has 2 components"),
    ("eval", _edit(["fm"], []),
     "a.json is malformed: expansion fm must hold one or more levels of 2 rows, got row counts []"),
    ("eval", lambda d: _edit(["fm", 1], d["fm"][1][:1])(d), "got row counts [2, 1]"),
    ("eval", _edit(["M"], 7), "a.json is malformed: expansion M must be 1, got 7"),
    ("eval", _edit(["alpha1"], [3, 0]),
     "a.json is malformed: expansion alpha1 must be (-0.5+0j), got (3+0j)"),
    ("eval", lambda d: json.dumps(d)[:100], "a.json is malformed: "),
], ids=["out-int", "out-null", "precision-list", "config-list", "config-pairs",
        "K-list", "fm-int", "coeffs-int", "lambda-int", "terms-int",
        "fm-level-int", "fm-row-int", "system-int",
        "K-str", "free-constants-triple", "truncation-str",
        "K-float", "truncation-float", "dims-float", "term-i-float", "term-k-floats",
        "hint-one", "lambda-triple", "term-c-triple",
        "free-constants-not-fm", "observable-short", "fm-empty", "fm-level-short",
        "M-not-fm", "alpha1-not-system", "cut-short"])
def test_json_of_the_wrong_type_exits_two(tmp_path, monkeypatch, capsys, cmd, edit, named):
    # a value of the wrong JSON type is a domain error with one line, not a traceback
    monkeypatch.chdir(tmp_path)
    if cmd == "validate":
        doc, argv = RunConfig("p1", C=12.0, n_range=(8,)).to_dict(), ["--config", "a.json"]
    else:
        doc = build_expansion(builtin("p1")[0], 1, 4).to_dict()
        argv = ["--in", "a.json", "--xi", "1"]
    doc = edit(doc)   # an edit that returns text is written as it stands
    (tmp_path / "a.json").write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert main([cmd, *argv]) == 2
    err = capsys.readouterr().err
    assert named in err and err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "run.json").exists()


@pytest.mark.parametrize("label", ["p2a", "p2b"])
def test_validate_reads_simple_poles_of_p2(tmp_path, monkeypatch, capsys, label):
    # neither system declares its kind of blow-up; the jets read it
    monkeypatch.chdir(tmp_path)
    t0 = time.perf_counter()
    assert main(["validate", label, "--C", "1", "--n", "8..11"]) == 0
    assert time.perf_counter() - t0 < 10.0
    run = json.loads((tmp_path / "run.json").read_text())
    assert len(run["observations"]) == 4
    for obs in run["observations"]:
        assert obs["kind"] == "simple_pole"
        assert abs(obs["exponent"] + 1.0) < 1e-3
    pairs = run["comparison"]["pairs"]
    assert len(pairs) == 4 and max(p["distance"] for p in pairs) < 0.05


@pytest.mark.parametrize("argv, outs", [
    (["system", "p1"], ["-"]),
    (["system", "p1", "--out", "a.json"], ["a.json"]),
    (["expand", "p1", "--M", "2", "--K", "16", "--out", "a.json"], ["a.json"]),
    (["predict", "p1", "--C", "12", "--n", "8..10", "--out", "a.json"], ["a.json"]),
    (["validate", "p1", "--C", "12", "--n", "8", "--out", "a.json", "--emit-config", "c.json"],
     ["a.json", "c.json"]),
], ids=["system", "system-out", "expand", "predict", "validate"])
def test_every_json_artifact_has_the_one_layout(tmp_path, monkeypatch, capsys, argv, outs):
    # sorted keys, one space of indent, a final newline
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    for out in outs:
        raw = stdout if out == "-" else (tmp_path / out).read_text()
        assert raw == json.dumps(json.loads(raw), sort_keys=True, indent=1) + "\n"


def _csv_rows(path):
    """The rows of a CSV artifact, after checking each value has 17 significant digits."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        assert row == [f"{float(v):.17g}" for v in row]
    return rows[0], np.array(rows[1:], dtype=float)


def test_hunt_and_continue_csvs_share_one_layout(tmp_path, monkeypatch, caplog, capsys):
    monkeypatch.chdir(tmp_path)
    written, write = {}, walk._write_csv

    def recording(path, x, y, *names):
        written[path] = (np.asarray(x), np.asarray(y))
        write(path, x, y, *names)

    monkeypatch.setattr(walk, "_write_csv", recording)
    (tmp_path / "hunts").mkdir()
    with caplog.at_level(logging.DEBUG, logger="transasym"):
        assert main(["validate", "p1", "--C", "12", "--n", "8..9", "--csv-dir", "hunts"]) == 0
    hunts = {r.hunt["target"]: r.hunt for r in caplog.records if hasattr(r, "hunt")}
    for en in json.loads((tmp_path / "run.json").read_text())["predicted"]["entries"]:
        path = f"hunts/pole_n{en['n']}.csv"
        header, back = _csv_rows(path)
        assert header == ["x_re", "x_im", "y1_re", "y1_im", "y2_re", "y2_im"]
        x, y = written[path]
        assert np.array_equal(back[:, 0] + 1j * back[:, 1], x)
        assert np.array_equal(back[:, 2::2] + 1j * back[:, 3::2], y.T)
        hunt = hunts[complex(*en["x_ref"])]
        assert len(back) == hunt["jets"] and x[0] == hunt["start"]
    assert main(["continue", "abel", "--path", "0.1", "0.2,0.1", "0.3,0", "--out", "c.csv"]) == 0
    header, back = _csv_rows("c.csv")
    assert header == ["xi_re", "xi_im", "F1_re", "F1_im"]
    res = continue_f0(builtin("abel")[0], [0.1, 0.2 + 0.1j, 0.3])
    assert np.array_equal(back[:, 0] + 1j * back[:, 1], res.xi)
    assert np.array_equal(back[:, 2] + 1j * back[:, 3], res.values[0])
