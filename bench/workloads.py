"""The four benchmark workloads.

Each workload has ``setup(ts, seed)``, which builds what the workload
takes as given, ``run(ts, state)``, one timed pass over its operations,
and ``check(ts, outputs)``, which returns the messages of the
correctness checks that fail.  ``ts`` is the imported ``transasym``
package; every call goes through its module attributes, so a traced pass
sees the same calls as an untraced one.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks


@dataclass
class Pass:
    """Outcome of one pass: operations attempted and failed, what the checks
    read, and a digest of the outputs that must repeat on every pass."""

    attempted: int
    failed: int
    outputs: dict
    digest: str


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else np.ascontiguousarray(p).tobytes())
    return h.hexdigest()


def _validate(ts, args, out: Path):
    """``transasym validate ... --out out`` in-process; (exit code, run.json bytes)."""
    out.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        code = ts.cli.main(["validate", *args, "--out", str(out)])
    return code, out.read_bytes() if code == 0 else b""


class Workload:
    """Holds the directory a workload writes its artifacts to."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir


class PoleSurvey(Workload):
    """Check-5 survey: p1, C = 12, n = 8..20, M = 2, K = 32, default tolerances."""

    n = tuple(range(8, 21))
    argv = ("p1", "--C", "12", "--n", "8..20")

    def setup(self, ts, seed):
        return None

    def run(self, ts, state) -> Pass:
        code, raw = _validate(ts, self.argv, self.out_dir / "pole-survey-run.json")
        run = json.loads(raw) if code == 0 else None
        return Pass(1, int(code != 0), {"run": run, "n": self.n}, _digest(raw))

    def check(self, ts, out):
        if out["run"] is None:
            return ["validate p1 exited with an error"]
        return checks.run_checks(checks.POLE_CHECKS, out)


class BranchSurvey(Workload):
    """Abel survey with weak (exponent -1/2) blow-ups, plus continue_f0 on
    one- and two-circuit loops about xi_0 and on an open polyline."""

    n = tuple(range(1, 11))
    argv = ("abel", "--C", "1", "--n", "1..10", "--M", "2", "--K", "48")
    polyline = (0.02, 0.12, 0.12 + 0.15j, -0.1 + 0.15j)

    def setup(self, ts, seed):
        return ts.systems.builtin("abel")[0]

    @staticmethod
    def loop(turns):
        """Circle of radius 0.12 about xi_0, entered from and left to xi = 0.1."""
        theta = np.linspace(np.pi, np.pi + 2.0 * np.pi * turns, 8 * turns + 1)
        return [0.1] + [checks.XI0 + 0.12 * np.exp(1j * t) for t in theta] + [0.1]

    def run(self, ts, abel) -> Pass:
        code, raw = _validate(ts, self.argv, self.out_dir / "branch-survey-run.json")
        failed = int(code != 0)
        out = {"run": json.loads(raw) if code == 0 else None, "n": self.n,
               "loop_defect": {}, "polyline": None}
        finals = []
        for turns in (1, 2):
            try:
                res = ts.singular.continue_f0(abel, self.loop(turns))
            except ts.TransasymError:
                failed += 1
                continue
            out["loop_defect"][turns] = float(np.max(np.abs(res.final - res.values[:, 0])))
            finals.append(res.final)
        try:
            res = ts.singular.continue_f0(abel, self.polyline)
            out["polyline"] = (self.polyline[-1], complex(res.final[0]))
            finals.append(res.final)
        except ts.TransasymError:
            failed += 1
        return Pass(4, failed, out, _digest(raw, *finals))

    def check(self, ts, out):
        if out["run"] is None or len(out["loop_defect"]) < 2 or out["polyline"] is None:
            return ["an operation of the branch survey failed"]
        return checks.run_checks(checks.BRANCH_CHECKS, out)


def ladder_inputs(seed: int):
    """Four constants times four rays for the seed.

    Seed 0 gives C in {12, 6+6i, 30, -12} and arg x in {0.8, 1.0, 1.2, 1.4}.
    Other seeds put one |C| in each quarter of [6, 30] and one arg x in each
    quarter of [0.8, 1.3], at offsets u, v, 1-v, 1-u within the quarters
    (antithetic draws: the sums of |C| and of arg x, which set the work of a
    pass, are the same for every seed); arg C is uniform.  Steeper rays are
    run with the fixed inputs of ``STEEP_LADDERS`` instead: there the
    recovered C misses 1e-3 for large |C|, so a drawn ladder would fail on
    some seeds only.
    """
    if seed == 0:
        return (12.0, 6.0 + 6.0j, 30.0, -12.0), (0.8, 1.0, 1.2, 1.4)
    rng = random.Random(seed)

    def quarters(lo, width):
        u, v = rng.random(), rng.random()
        return [lo + width * (i + f) for i, f in enumerate((u, v, 1.0 - v, 1.0 - u))]

    moduli, rays = quarters(6.0, 6.0), quarters(0.8, 0.125)
    consts = tuple(cmath.rect(m, rng.uniform(-math.pi, math.pi)) for m in moduli)
    return consts, tuple(rays)


# (C, arg x) run on every pass whatever the seed, on rays past the drawn ones.
# The relative error of the recovered C is |C| g(arg x), whatever arg C:
# 6.4e-4 and 6.5e-4 for the first two, 1.4e-3 for the third, which misses
# the 1e-3 check and is counted as the one failed ladder of a pass.
STEEP_LADDERS = ((12.0, 1.4), (20j, 1.35), (30j, 1.39))
KNOWN_FAILURE = (30j, 1.39)


class ConstantLadder(Workload):
    """extraction_ladder on a p1 expansion, M = 12, K = 32: the seed's 16
    (C, ray) pairs and the three ``STEEP_LADDERS``."""

    def setup(self, ts, seed):
        p1 = ts.systems.builtin("p1")[0]
        e = ts.expansion.build_expansion(p1, 12, 32)
        e.default_fit()  # fills the expansion's lazy radius and envelope caches
        return p1, e, ladder_inputs(seed)

    def run(self, ts, state) -> Pass:
        p1, e, (consts, rays) = state
        v = ts.validate
        pairs = [(C, arg) for C in consts for arg in rays] + list(STEEP_LADDERS)
        out = {"ladders": [], "raised": [], "known_failure": KNOWN_FAILURE}
        for C, arg in pairs:
            try:
                est = v.extraction_ladder(p1, e, C, arg, v.ladder_radii(e, arg))
            except ts.TransasymError:
                out["raised"].append((C, arg))
                continue
            out["ladders"].append((complex(C), arg, est.value))
        failed = len(out["raised"]) + int(checks.known_ladder_missed(out))
        return Pass(len(pairs), failed, out,
                    _digest(np.array([got for _, _, got in out["ladders"]])))

    def check(self, ts, out):
        if out["raised"]:
            return [f"ladders raised at (C, arg x) = {out['raised']}"]
        return checks.run_checks(checks.LADDER_CHECKS, out)


class Hierarchy(Workload):
    """build_expansion, radius_estimate on F_0 and gevrey_fit per build.

    The p1 M = 20 build fails today with ResonantOrder(1): the pin slope
    is taken as the difference of two trial defects that grow like m! B^m,
    and it drops below the resonance test for every M >= 19.
    """

    builds = (("p1", 0.0, 16, 64), ("p2a", 0.0, 8, 64), ("p2a", 0.3, 8, 64),
              ("p2b", 0.0, 8, 64), ("p2b", 0.3, 8, 64), ("abel", 0.0, 8, 200),
              ("abel", 0.0, 0, 400), ("p1", 0.0, 20, 32))
    known_failure = "p1 M=20 K=32"

    @staticmethod
    def key(label, alpha, M, K):
        fam = f" alpha={alpha:g}" if label.startswith("p2") else ""
        return f"{label}{fam} M={M} K={K}"

    def setup(self, ts, seed):
        return [(self.key(*b), ts.systems.builtin(b[0], alpha=b[1])[0], b[2], b[3])
                for b in self.builds]

    def run(self, ts, systems) -> Pass:
        ex, sg = ts.expansion, ts.singular
        out = {"builds": {}, "radii": {}, "fits": {}, "failed": [],
               "known_failure": self.known_failure}
        for key, s, M, K in systems:
            try:
                e = ex.build_expansion(s, M, K)
                est = sg.radius_estimate(e.observable_series(0))
                fit = ex.gevrey_fit(e, 0.5 * est.radius)
            except ts.TransasymError:
                out["failed"].append(key)
                continue
            out["builds"][key] = e
            out["radii"][key] = (est.radius, est.exponent)
            out["fits"][key] = fit
        digest = _digest(*(a for e in out["builds"].values() for a in e.fm),
                         np.array([f.K_g for f in out["fits"].values()]))
        return Pass(len(systems), len(out["failed"]), out, digest)

    def check(self, ts, out):
        out["p2_ref"] = {w: ts.oracles.p2_f0_taylor(w, 64) for w in "ab"}
        return checks.run_checks(checks.HIERARCHY_CHECKS, out)


WORKLOADS = {
    "pole-survey": PoleSurvey,
    "branch-survey": BranchSurvey,
    "constant-ladder": ConstantLadder,
    "hierarchy": Hierarchy,
}
