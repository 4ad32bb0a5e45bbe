"""Command-line front end.

Subcommands
-----------
system    list the built-in normalizations, or dump one as JSON
expand    build F_0..F_M and save the expansion as JSON
eval      evaluate a saved expansion: a level profile at xi, or the
          two-scale sum at (C, x)
predict   write the predicted singularity array as JSON
continue  continue the leading profile along a xi-plane polyline on Taylor
          jets, CSV out
validate  integrate, hunt and compare a whole array; JSON report
report    run the numbered release checks

Complex values are written ``re,im`` (a bare real is accepted); integer
ranges are ``a..b``, inclusive at both ends.  JSON artifacts are emitted
with sorted keys and fixed indentation, so identical configurations
produce byte-identical files.  Exit status: 0 success, 1 usage error,
2 domain error (including failed release checks).

``expand`` and ``validate`` take ``--precision double|extended``, the
dtype (complex128 or clongdouble) of the two-scale hierarchy they build.
Integration always runs in double, and a saved expansion stores doubles.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from dataclasses import dataclass

import numpy as np

from .errors import TransasymError
from .expansion import TwoScaleExpansion, build_expansion, eval_two_scale
from .singular import continue_f0, predict_array
from .systems import BUILTIN_LABELS, builtin
from .validate import run_validation

__all__ = ["RunConfig", "main"]

# --precision value -> dtype of the hierarchy build
_DTYPES = {"double": np.complex128, "extended": np.clongdouble}


class _UsageError(Exception):
    """Bad flag combination discovered after parsing."""


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the artifact contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _complex(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected re,im or a bare real, got {text!r}")


def _int_range(text: str) -> tuple[int, ...]:
    try:
        if ".." in text:
            a, b = text.split("..")
            lo, hi = int(a), int(b)
            if hi < lo:
                raise ValueError
            return tuple(range(lo, hi + 1))
        return (int(text),)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a..b or a single integer, got {text!r}") from None


def _fmt_c(z: complex) -> str:
    return f"{z.real:.12g},{z.imag:.12g}"


def _dump_json(obj, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


@dataclass(frozen=True)
class RunConfig:
    """Everything one validation run depends on; JSON round-trip stable."""

    label: str
    M: int = 2
    K: int = 32
    k_max: int | None = None
    C: complex = 1.0 + 0.0j
    n_range: tuple[int, ...] = ()
    capture: float = 1.0
    extract: bool = False
    out: str = "run.json"
    csv_dir: str | None = None
    precision: str = "double"

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["C"] = [self.C.real, self.C.imag]
        d["n_range"] = list(self.n_range)
        return d

    @classmethod
    def from_dict(cls, d) -> "RunConfig":
        d = dict(d)
        unknown = sorted(set(d) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ValueError(f"unknown RunConfig keys: {', '.join(unknown)}")
        d["C"] = complex(*d["C"])
        d["n_range"] = tuple(int(n) for n in d["n_range"])
        if d.get("k_max") is not None:
            d["k_max"] = int(d["k_max"])
        return cls(**d)

    def save(self, path: str) -> None:
        _dump_json(self.to_dict(), path)

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _cmd_system(args) -> int:
    if args.label is None:
        for label in BUILTIN_LABELS:
            print(label)
        return 0
    s, _ = builtin(args.label, alpha=args.alpha, b_branch=args.b_branch)
    payload = s.to_dict()
    if args.out:
        _dump_json(payload, args.out)
        print(f"{args.label} -> {args.out}")
    else:
        print(json.dumps(payload, sort_keys=True, indent=1))
    return 0


def _cmd_expand(args) -> int:
    s, _ = builtin(args.label, alpha=args.alpha, b_branch=args.b_branch)
    e = build_expansion(s, args.M, args.K, dtype=_DTYPES[args.precision])
    e.save(args.out)
    consts = " ".join(_fmt_c(c) for c in e.free_constants) or "-"
    print(f"{args.label}: M = {e.M}, K = {e.K}, free constants {consts} -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    if args.xi is None and (args.C is None or args.x is None):
        raise _UsageError("eval needs --xi, or both --C and --x")
    e = TwoScaleExpansion.load(args.infile)
    if args.xi is not None:
        print(_fmt_c(e.observable_series(args.m).evaluate(args.xi)))
        return 0
    value, bound = eval_two_scale(e, args.C, args.x, m_used=args.m_used)
    print(" ".join(_fmt_c(v) for v in value), f"bound {bound:.6g}")
    return 0


def _cmd_predict(args) -> int:
    s, _ = builtin(args.label, alpha=args.alpha, b_branch=args.b_branch)
    xi_s = args.xi_s if args.xi_s is not None else s.xi_s_hint
    if xi_s is None:
        raise TransasymError(
            f"{args.label} declares no singular scale value; pass --xi-s")
    alpha1 = args.alpha1 if args.alpha1 is not None else s.alpha[0]
    arr = predict_array(xi_s, args.C, alpha1, args.n)
    arr.save(args.out)
    print(f"{len(arr.entries)} entries -> {args.out}")
    return 0


def _cmd_continue(args) -> int:
    s, _ = builtin(args.label, alpha=args.alpha, b_branch=args.b_branch)
    res = continue_f0(s, args.path, seed_order=args.seed_order)
    n = s.n
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["xi_re", "xi_im"]
                   + [f"F{j + 1}_{p}" for j in range(n) for p in ("re", "im")])
        for k in range(res.xi.size):
            row = [f"{res.xi[k].real:.17g}", f"{res.xi[k].imag:.17g}"]
            for j in range(n):
                v = res.values[j, k]
                row += [f"{v.real:.17g}", f"{v.imag:.17g}"]
            w.writerow(row)
    final = " ".join(_fmt_c(v) for v in res.final)
    print(f"{res.xi.size} samples -> {args.out}; final {final}")
    return 0


def _cmd_validate(args) -> int:
    if args.config:
        cfg = RunConfig.load(args.config)
        # explicit destinations beat the ones recorded in the config
        if args.out is not None:
            cfg = dataclasses.replace(cfg, out=args.out)
        if args.csv_dir is not None:
            cfg = dataclasses.replace(cfg, csv_dir=args.csv_dir)
    else:
        if args.label is None or not args.n:
            raise TransasymError("validate needs a label and --n, or --config")
        cfg = RunConfig(
            label=args.label, M=args.M, K=args.K, k_max=args.k_max,
            C=args.C, n_range=args.n, capture=args.capture, extract=args.extract,
            out=args.out or "run.json", csv_dir=args.csv_dir,
            precision=args.precision)
    if cfg.precision not in _DTYPES:
        raise ValueError(f"precision must be one of {sorted(_DTYPES)}, got {cfg.precision!r}")
    if args.emit_config:
        cfg.save(args.emit_config)

    s, _ = builtin(cfg.label)
    e = build_expansion(s, cfg.M, cfg.K, dtype=_DTYPES[cfg.precision])
    kw = {} if cfg.k_max is None else {"deep_M": cfg.k_max}
    run = run_validation(s, e, cfg.C, cfg.n_range, capture=cfg.capture,
                         extract=cfg.extract, csv_dir=cfg.csv_dir, **kw)
    rep = run.report
    for n, x_pred, x_obs, dist in rep.pairs:
        print(f"n = {n}: predicted {_fmt_c(x_pred)}  observed {_fmt_c(x_obs)}"
              f"  |Delta| {dist:.5f}")
    for n, x_pred in rep.unmatched_predictions:
        print(f"n = {n}: predicted {_fmt_c(x_pred)}  unmatched")
    st = rep.stats
    print(f"{st['n_pairs']}/{len(run.predicted.entries)} matched, "
          f"max |Delta| {st['max_distance']:.5f}, "
          f"median {st['median_distance']:.5f}")
    if run.extraction is not None:
        est = run.extraction
        print(f"extracted C = {_fmt_c(est.value)} +- {est.uncertainty:.3g}")
    _dump_json(run.to_dict(), cfg.out)
    print(f"report -> {cfg.out}")
    return 0


def _cmd_report(args) -> int:
    from . import acceptance

    numbers = None if args.criterion is None else [args.criterion]
    results = acceptance.run_all(numbers)
    print(acceptance.format_report(results))
    return 0 if all(p for _, _, p, _ in results) else 2


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=_complex, default=0.0,
                   help="family parameter of the P2 normalizations")
    p.add_argument("--b-branch", type=int, choices=(1, -1), default=1,
                   dest="b_branch", help="sign branch of B in p2b")


def _add_precision_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--precision", choices=sorted(_DTYPES), default="double",
                   help="dtype of the hierarchy build (default double); "
                        "integration runs in double")


def _build_parser() -> _Parser:
    top = _Parser(prog="transasym",
                  description="two-scale expansions and their singularity arrays")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("system", help="list builtins or dump one as JSON")
    p.add_argument("label", nargs="?", choices=BUILTIN_LABELS)
    _add_family_flags(p)
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(fn=_cmd_system)

    p = sub.add_parser("expand", help="build and save a two-scale expansion")
    p.add_argument("label", choices=BUILTIN_LABELS)
    _add_family_flags(p)
    p.add_argument("--M", type=int, default=8, help="deepest level (default 8)")
    p.add_argument("--K", type=int, default=64, help="Taylor order (default 64)")
    _add_precision_flag(p)
    p.add_argument("--out", default="expansion.json")
    p.set_defaults(fn=_cmd_expand)

    p = sub.add_parser("eval", help="evaluate a saved expansion")
    p.add_argument("--in", dest="infile", default="expansion.json")
    p.add_argument("--xi", type=_complex, help="evaluate one level profile at xi")
    p.add_argument("--m", type=int, default=0, help="level for --xi (default 0)")
    p.add_argument("--C", type=_complex, help="transseries constant for a two-scale sum")
    p.add_argument("--x", type=_complex, help="evaluation point for a two-scale sum")
    p.add_argument("--m-used", dest="m_used", type=int,
                   help="truncation level override for the two-scale sum")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("predict", help="predicted singularity array as JSON")
    p.add_argument("label", choices=BUILTIN_LABELS)
    _add_family_flags(p)
    p.add_argument("--C", type=_complex, required=True)
    p.add_argument("--n", type=_int_range, required=True, help="indices a..b")
    p.add_argument("--xi-s", dest="xi_s", type=_complex,
                   help="singular scale value (default: the system hint)")
    p.add_argument("--alpha1", type=_complex,
                   help="scale exponent (default: the system's alpha_1)")
    p.add_argument("--out", default="array.json")
    p.set_defaults(fn=_cmd_predict)

    p = sub.add_parser("continue", help="continue F_0 along a xi-plane polyline on Taylor jets")
    p.add_argument("label", choices=BUILTIN_LABELS)
    _add_family_flags(p)
    p.add_argument("--path", type=_complex, nargs="+", required=True,
                   help="waypoints re,im ...")
    p.add_argument("--seed-order", dest="seed_order", type=int, default=64)
    p.add_argument("--out", default="continuation.csv")
    p.set_defaults(fn=_cmd_continue)

    p = sub.add_parser("validate", help="integrate, hunt and compare an array")
    p.add_argument("label", nargs="?", choices=BUILTIN_LABELS)
    p.add_argument("--config", help="load a RunConfig JSON instead of flags")
    p.add_argument("--emit-config", dest="emit_config",
                   help="write the effective RunConfig here")
    p.add_argument("--C", type=_complex, default=1.0 + 0.0j)
    p.add_argument("--n", type=_int_range, default=(), help="indices a..b")
    p.add_argument("--M", type=int, default=2)
    p.add_argument("--K", type=int, default=32)
    _add_precision_flag(p)
    p.add_argument("--k-max", dest="k_max", type=int,
                   help="level for the deepened extraction expansion")
    p.add_argument("--capture", type=float, default=1.0)
    p.add_argument("--extract", action="store_true",
                   help="also recover C from the integrated solution")
    p.add_argument("--out", default=None,
                   help="report destination (default run.json)")
    p.add_argument("--csv-dir", dest="csv_dir",
                   help="write one CSV per pole here, a row per Taylor-jet centre of its hunt")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("report", help="run the numbered release checks")
    p.add_argument("--criterion", type=int, choices=range(1, 11),
                   help="run a single check")
    p.set_defaults(fn=_cmd_report)

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _UsageError as err:
        print(f"transasym: error: {err}", file=sys.stderr)
        return 1
    except (TransasymError, OSError, ValueError, ZeroDivisionError) as err:
        print(f"transasym: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
