"""Working precision: one dtype argument to the hierarchy build.

The hierarchy is built in the dtype passed to ``build_expansion``;
systems, their field, the integrator and the Taylor-jet walks always
run in complex128, and no environment variable takes part.
"""

import json

import numpy as np
import pytest

from transasym.cli import RunConfig, _dump_json, main
from transasym.expansion import build_expansion
from transasym.systems import builtin


def _relative_residual_rows(e):
    res = e.residual_coefficients()
    return [float(np.max(np.abs(res[:, m, :])) / np.max(np.abs(e.fm[m])))
            for m in range(e.M + 1)]


def test_default_is_double(p1):
    e = build_expansion(p1, 2, 16)
    assert all(level.dtype == np.complex128 for level in e.fm)
    assert p1.field(20.0 + 5.0j, [0.1, 0.2]).dtype == np.complex128
    assert RunConfig("p1", n_range=(8,)).precision == "double"


@pytest.mark.parametrize("spelling", ["extended", "long", "longdouble"])
def test_environment_is_ignored(monkeypatch, p1, spelling):
    monkeypatch.setenv("TRANSASYM_PRECISION", spelling)
    e = build_expansion(p1, 2, 16)
    assert all(level.dtype == np.complex128 for level in e.fm)
    assert p1.field(20.0 + 5.0j, [0.1, 0.2]).dtype == np.complex128


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="numpy.longdouble is no wider than double on this platform")
def test_extended_build_matches_double(p1):
    # p1 (M = 8, K = 32), and p2b at alpha = 0.3 (M = 8, K = 64: two chain lengths,
    # the level solve's shift term, and levels that cancel, so a higher floor)
    p2b = builtin("p2b", alpha=0.3)[0]
    for s, M, K, floor in ((p1, 8, 32, 1e-18), (p2b, 8, 64, 1e-15)):
        ext = build_expansion(s, M, K, dtype=np.clongdouble)
        dbl = build_expansion(s, M, K)
        assert all(level.dtype == np.clongdouble for level in ext.fm)
        # every residual row vanishes below what double arithmetic can reach
        assert max(_relative_residual_rows(ext)) < floor
        assert max(_relative_residual_rows(dbl)) > floor
        for a, b in zip(ext.free_constants, dbl.free_constants):
            assert abs(a - b) <= 1e-12 * abs(b)
        for m in range(M + 1):
            assert np.max(np.abs(ext.fm[m] - dbl.fm[m])) <= 1e-13 * np.max(np.abs(dbl.fm[m]))
        # the field is double whatever the seed's precision
        assert s.field(20.0, ext.fm[2][:, 3]).dtype == np.complex128


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="numpy.longdouble is no wider than double on this platform")
def test_extended_abel_build_keeps_its_precision(abel):
    # every level is solved in clongdouble, the per-order inverses included,
    # so every row stays below what double arithmetic can reach
    e = build_expansion(abel, 8, 48, dtype=np.clongdouble)
    assert max(_relative_residual_rows(e)) < 2e-17


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="numpy.longdouble is no wider than double on this platform")
def test_extended_deep_leading_profile_keeps_its_precision(abel):
    # the recursion over orders divides by lambda - k in clongdouble at every order
    e = build_expansion(abel, 0, 400, dtype=np.clongdouble)
    assert _relative_residual_rows(e)[0] < 2e-17


def _mp(v):
    """A longdouble or clongdouble value as an exact mpmath number."""
    import mpmath

    def part(x):
        hi = float(x)
        return mpmath.mpf(hi) + mpmath.mpf(float(x - np.longdouble(hi)))
    return mpmath.mpc(part(np.real(v)), part(np.imag(v)))


def _mp_formal_series(s, R):
    """c_2..c_R of the formal solution from L c_r = (A + (r-1) I) c_{r-1} + [z^r] g,
    in mpmath at the working precision, on the system's double coefficients."""
    import mpmath

    n, mpc = s.n, mpmath.mpc
    lam, alpha = [mpc(complex(v)) for v in s.lam], [mpc(complex(v)) for v in s.alpha]
    c = [[mpc(0)] * n for _ in range(R + 1)]
    for r in range(2, R + 1):
        g = [mpc(0)] * n
        for (i, k), vec in s.germ.terms.items():
            if i > r:
                continue
            prod = [mpc(1)] + [mpc(0)] * r          # [z^b] y^k through b = r
            for j in (j for j, p in enumerate(k) for _ in range(p)):
                prod = [mpmath.fsum(prod[a] * c[b - a][j] for a in range(b + 1)) for b in range(r + 1)]
            g = [g[j] + mpc(complex(vec[j])) * prod[r - i] for j in range(n)]
        c[r] = [((alpha[j] + (r - 1)) * c[r - 1][j] + g[j]) / lam[j] for j in range(n)]
    return c


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="numpy.longdouble is no wider than double on this platform")
def test_extended_abel_series_solves_its_own_coefficients(abel):
    # (m-1) + alpha rounded to double would leave errors of about 2e-16
    mpmath = pytest.importorskip("mpmath")
    e = build_expansion(abel, 10, 2, dtype=np.clongdouble)
    with mpmath.workdps(50):
        ref = _mp_formal_series(abel, 10)
        for m in range(2, 11):
            assert abs(_mp(e.fm[m][0, 0]) - ref[m][0]) <= 1e-18 * abs(ref[m][0]), m


def _mp_residual_rows(e):
    """max_k |residual| of each level's row relative to max|F_m|, as
    ``_relative_residual_rows`` reads it, with the germ composed and the
    rows formed in mpmath at the working precision on the stored levels."""
    import mpmath

    s, M, K = e.system, e.M, e.K
    mpc = mpmath.mpc
    F = [[[mpc(complex(v)) for v in e.fm[m][j]] for m in range(M + 1)] for j in range(s.n)]

    def mul(a, b):   # [z^m xi^k] of a b, truncated at z^M and xi^K
        return [[mpmath.fdot((a[i][l], b[m - i][k - l]) for i in range(m + 1) for l in range(k + 1))
                 for k in range(K + 1)] for m in range(M + 1)]

    monomials = {(0,) * s.n: [[mpc(m == q == 0) for q in range(K + 1)] for m in range(M + 1)]}

    def monomial(k):   # y^k as bivariate coefficients
        if k not in monomials:
            j = next(j for j, p in enumerate(k) if p)
            rest = k[:j] + (k[j] - 1,) + k[j + 1:]
            monomials[k] = F[j] if not any(rest) else mul(monomial(rest), F[j])
        return monomials[k]

    rows = [0.0] * (M + 1)
    alpha1 = mpc(complex(s.alpha[0]))
    for j in range(s.n):
        lam, alpha = mpc(complex(s.lam[j])), mpc(complex(s.alpha[j]))
        for m in range(M + 1):
            for k in range(K + 1):
                g = mpmath.fsum(mpc(complex(vec[j])) * monomial(kk)[m - i][k]
                                for (i, kk), vec in s.germ.terms.items() if i <= m)
                r = (lam - k) * F[j][m][k] - g
                if m >= 1:
                    r += (alpha1 * k - (m - 1) - alpha) * F[j][m - 1][k]
                rows[m] = max(rows[m], float(abs(r)))
    return [r / float(np.max(np.abs(e.fm[m]))) for m, r in enumerate(rows)]


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="numpy.longdouble is no wider than double on this platform")
def test_residual_reference_reads_the_true_residual_of_a_double_build(abel):
    # the reference is formed in clongdouble from the stored double levels, so
    # its worst row is the levels' own error, not the reference's rounding
    mpmath = pytest.importorskip("mpmath")
    e = build_expansion(abel, 16, 34)
    got = max(_relative_residual_rows(e))
    with mpmath.workdps(40):
        ref = max(_mp_residual_rows(e))
    assert abs(got - ref) <= 0.05 * ref


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
    cfg = RunConfig("p1", C=12.0, n_range=(8,)).to_dict()
    _dump_json({**cfg, "precision": "quad"}, "cfg.json")
    with pytest.raises(ValueError, match="RunConfig precision must be one of double, extended"):
        RunConfig.from_dict({**cfg, "precision": "quad"})
    assert main(["validate", "--config", "cfg.json"]) == 2
    assert "precision must be one of" in capsys.readouterr().err
