"""Command-line front end.

Subcommands
-----------
system    list the built-in normalizations, or dump one as JSON
expand    build F_0..F_M and save the expansion as JSON
eval      evaluate a saved expansion: a level profile at xi, or the
          two-scale sum at (C, x)
predict   write the singularity array at the system's own xi_s as JSON
continue  continue the leading profile along a xi-plane polyline on Taylor
          jets, CSV out
validate  hunt and compare a whole array on Taylor jets; JSON report
report    run the numbered release checks

Complex values are written ``re,im`` (a bare real is accepted) and must
be finite; integer ranges are ``a..b``, inclusive at both ends.  Every
JSON artifact (``system``, ``expand``, ``predict``, and ``validate``'s
report and ``--emit-config``) has sorted keys, is indented by one space,
ends with a newline and never carries NaN or Infinity; a value that is
not finite leaves no file.  ``continue`` and ``validate --csv-dir``
write CSV with 17 significant digits.  So identical configurations
produce byte-identical files.  Exit status: 0 success, 1 usage error,
2 domain error (including failed release checks).

``expand`` and ``validate`` take ``--precision double|extended``, the
dtype (complex128 or clongdouble) of the two-scale hierarchy they build.
The Taylor jets always run in double, and a saved expansion stores doubles.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import functools
import json
import numbers
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from .errors import TransasymError, read_field, require_keys
from .expansion import TwoScaleExpansion, build_expansion, eval_two_scale
from .singular import continue_f0, predict_array
from .systems import BUILTIN_LABELS, builtin
from .validate import run_validation
from .walk import _write_csv

__all__ = ["RunConfig", "main"]

# --precision value -> dtype of the hierarchy build
_DTYPES = {"double": np.complex128, "extended": np.clongdouble}
# RunConfig field -> the validate flag that sets it; --config takes none of them
_RUN_FLAGS = {"label": "the label", "C": "--C", "n_range": "--n", "M": "--M", "K": "--K",
              "extract": "--extract", "precision": "--precision"}


class _UsageError(Exception):
    """Bad flag combination discovered after parsing."""


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the artifact contract wants 1.  No option starts
    with a digit or '.', so a ``-<digit>...`` or ``-.<digit>...`` token is a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _complex(text: str) -> complex:
    try:
        z = complex(*map(float, text.split(",")))
    except (TypeError, ValueError):  # TypeError: more than two parts
        raise argparse.ArgumentTypeError(
            f"expected re,im or a bare real, got {text!r}") from None
    if not cmath.isfinite(z):
        raise argparse.ArgumentTypeError(f"expected a finite value, got {text!r}")
    return z


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


def _load_json(path: str, build):
    """``build`` of the JSON document at ``path``.  Every refusal of the document (text
    that is not JSON, a missing key, a value of the wrong type or one that disagrees
    with another) is one ``ValueError`` naming the file."""
    with open(path) as fh:
        try:
            return build(json.load(fh))
        except (TypeError, ValueError) as err:
            raise ValueError(f"{path} is malformed: {err}") from None


def _dump_json(obj, path: str | None) -> None:
    """Write ``obj`` as JSON to ``path``, or to stdout when ``path`` is None.

    The one JSON layout: sorted keys, one space of indent, a final newline.
    A value that is not finite raises ``ValueError`` before ``path`` is
    opened, so it leaves no file.
    """
    text = json.dumps(obj, sort_keys=True, indent=1, allow_nan=False) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)


@dataclass(frozen=True)
class RunConfig:
    """Everything one validation run depends on; JSON round-trip stable."""

    label: str
    n_range: tuple[int, ...]
    M: int = 8
    K: int = 32
    C: complex = 1.0 + 0.0j
    extract: bool = False
    out: str = "run.json"
    csv_dir: str | None = None
    precision: str = "double"

    def __post_init__(self):
        """Give values read from JSON, past ``from_dict``'s reader, the flags' checks."""
        for key, ok, what in (
                ("n_range", bool(self.n_range), "a non-empty list of integers"),
                ("C", isinstance(self.C, numbers.Complex) and cmath.isfinite(self.C), "finite"),
                ("extract", isinstance(self.extract, bool), "true or false"),
                ("label", self.label in BUILTIN_LABELS, f"one of {', '.join(BUILTIN_LABELS)}"),
                ("precision", isinstance(self.precision, str) and self.precision in _DTYPES,
                 f"one of {', '.join(sorted(_DTYPES))}"),
                ("out", isinstance(self.out, str), "a string"),
                ("csv_dir", self.csv_dir is None or isinstance(self.csv_dir, str),
                 "a string or null")):
            if not ok:
                raise ValueError(f"RunConfig {key} must be {what}, got {getattr(self, key)!r}")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["C"] = [self.C.real, self.C.imag]
        d["n_range"] = list(self.n_range)
        return d

    @classmethod
    def from_dict(cls, d) -> "RunConfig":
        if not isinstance(d, dict):   # dict() would take a list of pairs as well
            raise TypeError(f"a RunConfig is a JSON object, not {type(d).__name__}")
        d = dict(d)
        unknown = sorted(set(d) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ValueError(f"unknown RunConfig keys: {', '.join(unknown)}")
        require_keys(d, ("label", "C", "n_range"), "RunConfig")
        d["C"] = read_field(d, "C", "RunConfig", complex)
        d["n_range"] = tuple(read_field(d, "n_range", "RunConfig", listed=True))
        d.update((key, read_field(d, key, "RunConfig")) for key in ("M", "K") if key in d)
        return cls(**d)


def _cmd_system(args) -> int:
    if args.label is None:
        for label in BUILTIN_LABELS:
            print(label)
        return 0
    s, _ = builtin(args.label, alpha=args.alpha, b_branch=args.b_branch)
    _dump_json(s.to_dict(), args.out)
    if args.out is not None:
        print(f"{args.label} -> {args.out}")
    return 0


def _cmd_expand(args) -> int:
    s, _ = builtin(args.label, alpha=args.alpha, b_branch=args.b_branch)
    e = build_expansion(s, args.M, args.K, dtype=_DTYPES[args.precision])
    _dump_json(e.to_dict(), args.out)
    consts = " ".join(_fmt_c(c) for c in e.free_constants) or "-"
    print(f"{args.label}: M = {e.M}, K = {e.K}, free constants {consts} -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    given = (args.xi is not None, args.C is not None, args.x is not None)
    if given not in ((True, False, False), (False, True, True)):
        raise _UsageError("eval needs --xi alone, or both --C and --x")
    if args.m is not None and args.xi is None:
        raise _UsageError("--m picks the level --xi reads; the sum at --C and --x takes none")
    e = _load_json(args.infile, TwoScaleExpansion.from_dict)
    if args.xi is not None:
        e._require_disk(args.xi)
        row = e.observable_series(args.m or 0).coeffs
        print(_fmt_c(np.polynomial.polynomial.polyval(args.xi, row)))
        return 0
    value, bound = eval_two_scale(e, args.C, args.x)
    print(" ".join(_fmt_c(v) for v in value), f"bound {bound:.6g}")
    return 0


def _cmd_predict(args) -> int:
    s, _ = builtin(args.label, alpha=args.alpha, b_branch=args.b_branch)
    arr = predict_array(s.xi_s_hint, args.C, s.alpha[0], args.n)
    _dump_json(arr.to_dict(), args.out)
    print(f"{len(arr.entries)} entries -> {args.out}")
    return 0


def _cmd_continue(args) -> int:
    s, _ = builtin(args.label, alpha=args.alpha, b_branch=args.b_branch)
    res = continue_f0(s, args.path)
    _write_csv(args.out, res.xi, res.values, "xi", "F")
    final = " ".join(_fmt_c(v) for v in res.final)
    print(f"{res.xi.size} samples -> {args.out}; final {final}")
    return 0


def _cmd_validate(args) -> int:
    flags = {k: getattr(args, k) for k in _RUN_FLAGS if getattr(args, k) is not None}
    if args.config:
        if flags:
            raise _UsageError("--config takes no run flags, got "
                              + ", ".join(_RUN_FLAGS[k] for k in flags))
        cfg = _load_json(args.config, RunConfig.from_dict)
    else:
        if args.label is None or not args.n_range:
            raise ValueError("validate needs a label and --n, or --config")
        cfg = RunConfig(**flags)
    # explicit destinations beat RunConfig's defaults and those a config records
    dests = {k: getattr(args, k) for k in ("out", "csv_dir") if getattr(args, k) is not None}
    cfg = dataclasses.replace(cfg, **dests)
    # refuse a destination the run could not write before the survey, not after it
    for d in (os.path.dirname(cfg.out) or os.curdir, cfg.csv_dir):
        if d is not None and not (os.path.isdir(d) and os.access(d, os.W_OK)):
            raise ValueError(f"{d} is not a writable directory")
    if args.emit_config:
        _dump_json(cfg.to_dict(), args.emit_config)

    s, _ = builtin(cfg.label)
    e = build_expansion(s, cfg.M, cfg.K, dtype=_DTYPES[cfg.precision])
    run = run_validation(s, e, cfg.C, cfg.n_range, extract=cfg.extract, csv_dir=cfg.csv_dir)
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


def _add_precision_flag(p: argparse.ArgumentParser, default: str | None) -> None:
    p.add_argument("--precision", choices=sorted(_DTYPES), default=default,
                   help=f"dtype of the hierarchy build (default {RunConfig.precision}); "
                        "Taylor jets run in double")


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process, built on first use and kept for later calls."""
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
    _add_precision_flag(p, RunConfig.precision)
    p.add_argument("--out", default="expansion.json")
    p.set_defaults(fn=_cmd_expand)

    p = sub.add_parser("eval", help="evaluate a saved expansion")
    p.add_argument("--in", dest="infile", default="expansion.json")
    p.add_argument("--xi", type=_complex, help="evaluate one level profile at xi")
    p.add_argument("--m", type=int, help="level for --xi (default 0)")
    p.add_argument("--C", type=_complex, help="transseries constant for a two-scale sum")
    p.add_argument("--x", type=_complex, help="evaluation point for a two-scale sum")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("predict", help="singularity array at the system's own xi_s, as JSON")
    p.add_argument("label", choices=BUILTIN_LABELS)
    _add_family_flags(p)
    p.add_argument("--C", type=_complex, required=True)
    p.add_argument("--n", type=_int_range, required=True, help="indices a..b")
    p.add_argument("--out", default="array.json")
    p.set_defaults(fn=_cmd_predict)

    p = sub.add_parser("continue", help="continue F_0 along a xi-plane polyline on Taylor jets")
    p.add_argument("label", choices=BUILTIN_LABELS)
    _add_family_flags(p)
    p.add_argument("--path", type=_complex, nargs="+", required=True,
                   help="waypoints re,im ...")
    p.add_argument("--out", default="continuation.csv")
    p.set_defaults(fn=_cmd_continue)

    p = sub.add_parser("validate", help="hunt and compare an array on Taylor jets")
    p.add_argument("label", nargs="?", choices=BUILTIN_LABELS)
    p.add_argument("--config", help="load a RunConfig JSON instead of flags")
    p.add_argument("--emit-config", dest="emit_config",
                   help="write the effective RunConfig here")
    # the run flags default to None, so RunConfig holds their defaults
    p.add_argument("--C", type=_complex,
                   help=f"transseries constant (default {_fmt_c(RunConfig.C)})")
    p.add_argument("--n", dest="n_range", type=_int_range, help="indices a..b")
    p.add_argument("--M", type=int,
                   help=f"deepest level of the hunts' seeds (default {RunConfig.M})")
    p.add_argument("--K", type=int, help=f"Taylor order (default {RunConfig.K})")
    _add_precision_flag(p, None)
    p.add_argument("--extract", action="store_true", default=None,
                   help="also recover C from the solution, walked on Taylor jets")
    p.add_argument("--out", help=f"report destination (default {RunConfig.out})")
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
    except (TransasymError, OSError, ValueError, ArithmeticError) as err:
        print(f"transasym: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
