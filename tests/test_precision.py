"""Working precision: one dtype argument to the hierarchy build.

The hierarchy is built in the dtype passed to ``build_expansion``;
systems, their field, the integrator and the Taylor-jet walks always
run in complex128, and no environment variable takes part.
"""

import json

import numpy as np
import pytest

from transasym.cli import RunConfig, main
from transasym.expansion import build_expansion


def _relative_residual_rows(e):
    res = e.residual_coefficients()
    return [float(np.max(np.abs(res[:, m, :])) / np.max(np.abs(e.fm[m])))
            for m in range(e.M + 1)]


def test_default_is_double(p1):
    e = build_expansion(p1, 2, 16)
    assert all(level.dtype == np.complex128 for level in e.fm)
    assert p1.field(20.0 + 5.0j, [0.1, 0.2]).dtype == np.complex128
    assert RunConfig("p1").precision == "double"


@pytest.mark.parametrize("spelling", ["extended", "long", "longdouble"])
def test_environment_is_ignored(monkeypatch, p1, spelling):
    monkeypatch.setenv("TRANSASYM_PRECISION", spelling)
    e = build_expansion(p1, 2, 16)
    assert all(level.dtype == np.complex128 for level in e.fm)
    assert p1.field(20.0 + 5.0j, [0.1, 0.2]).dtype == np.complex128


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="numpy.longdouble is no wider than double on this platform")
def test_extended_build_matches_double(p1):
    ext = build_expansion(p1, 8, 32, dtype=np.clongdouble)
    dbl = build_expansion(p1, 8, 32)
    assert all(level.dtype == np.clongdouble for level in ext.fm)
    # every residual row vanishes below what double arithmetic can reach
    assert max(_relative_residual_rows(ext)) < 1e-18
    assert max(_relative_residual_rows(dbl)) > 1e-18
    for a, b in zip(ext.free_constants, dbl.free_constants):
        assert abs(a - b) <= 1e-12 * abs(b)
    # the field is double whatever the seed's precision
    assert p1.field(20.0, ext.fm[2][:, 3]).dtype == np.complex128


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="numpy.longdouble is no wider than double on this platform")
def test_extended_abel_build_keeps_its_precision(abel):
    # LAPACK solves each level in complex128; the refinement step, whose
    # residual is formed in clongdouble, must bring every row back below
    # what double arithmetic can reach
    e = build_expansion(abel, 8, 48, dtype=np.clongdouble)
    assert max(_relative_residual_rows(e)) < 2e-17


def test_extended_validate_matches_double(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["validate", "p1", "--C", "12", "--n", "8..9", "--extract"]
    assert main(argv + ["--precision", "extended", "--out", "ext.json"]) == 0
    assert main(argv + ["--out", "dbl.json"]) == 0
    ext = json.loads((tmp_path / "ext.json").read_text())
    dbl = json.loads((tmp_path / "dbl.json").read_text())
    assert len(ext["observations"]) == len(dbl["observations"]) == 2
    for a, b in zip(ext["observations"], dbl["observations"]):
        xa, xb = complex(*a["location"]), complex(*b["location"])
        assert abs(xa - xb) <= 1e-9 * abs(xb)
    # the ladder walks both seeds in complex128, so only the seeds differ
    ca, cb = (complex(*r["C_extracted"]["value"]) for r in (ext, dbl))
    assert abs(ca - cb) <= 1e-9 * abs(cb)


def test_unknown_mode_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(["validate", "p1", "--C", "12", "--n", "8", "--precision", "quad"])
    assert info.value.code == 1
    RunConfig("p1", C=12.0, n_range=(8,), precision="quad").save("cfg.json")
    assert main(["validate", "--config", "cfg.json"]) == 2
    assert "precision must be one of" in capsys.readouterr().err
