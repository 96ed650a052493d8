"""Checks on the CLI's output files, computed apart from the program.

Every expected value here comes from closed forms, the benchmark's own
scalar search or the config the benchmark wrote; nothing is imported from
`cogarq`.  A check returns `Failure`s keyed by what they condemn: a single
(sweep point, scheme) operation, every scheme at one sweep point, or the
whole invocation.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

# Analytic SU throughput must fall in this order at every sweep point.
ORDER = ("genie", "chain_decoding", "fic_bic", "fic_only", "no_fic_bic")
SCHEME_METRICS = (
    "analytic_su_throughput", "analytic_pu_throughput", "constraint_min",
    "mc_su_throughput", "mc_pu_throughput", "drop_rate",
)
GENIE_METRICS = ("analytic_su_throughput", "constraint_min")

FLOOR_TOL = 1e-9      # the floor is a closed form of the rate and the SNR
ORDER_TOL = 1e-9
RATE_REL_TOL = 1e-3   # the CLI stops its rate search at a relative 1e-4
PU_FLOOR_TOL = 1e-4   # the solver's own constraint tolerance
# Monte Carlo SU throughput must lie within MC_SIGMAS of its reported
# batch-means standard error of the analytic value.  A readme_sweep run makes
# 24 such comparisons and an analytic_sweep run 96; at 6 sigma a false failure
# has a chance of about 2e-9 each, so even 10^5 comparisons over the life of
# the benchmark are unlikely to produce one.
MC_SIGMAS = 6.0
# The genie ceiling is a sum of region frequencies from `region_samples`
# draws; the same number of binomial standard errors bounds its sampling error.
REGION_SIGMAS = 6.0
# Points this close to the activation ratio (relatively) get no r* check.
RSTAR_MARGIN = 0.01


class Failure(NamedTuple):
    check: str
    key: tuple | None  # None: whole invocation; (i, None): point i; (i, scheme)
    message: str


@dataclass(frozen=True)
class Expect:
    """What one invocation should have computed, read from its config."""

    points: tuple[float, ...]
    schemes: tuple[str, ...]
    sweep: str
    mean_gamma_s: float
    mean_gamma_p: float
    mean_gamma_sp: float
    fraction: float
    region_samples: int
    check_invariants: bool

    @classmethod
    def from_config(cls, cfg: dict, check_invariants: bool) -> "Expect":
        return cls(
            points=tuple(float(x) for x in cfg["sweep_values"].split(",") if x.strip()),
            schemes=tuple(x.strip() for x in cfg["schemes"].split(",") if x.strip()),
            sweep=cfg["sweep"],
            mean_gamma_s=float(cfg["mean_gamma_s"]),
            mean_gamma_p=float(cfg["mean_gamma_p"]),
            mean_gamma_sp=float(cfg.get("mean_gamma_sp", 0.0)),
            fraction=float(cfg["constraint_fraction"]),
            region_samples=int(cfg.get("region_samples", 1_000_000)),
            check_invariants=check_invariants,
        )

    @property
    def ops(self) -> list[tuple[int, str]]:
        """One operation per (sweep point, scheme) solve-and-simulate."""
        return [(i, s) for i in range(len(self.points)) for s in self.schemes]

    def sp_ratio(self, i: int) -> float:
        if self.sweep == "gamma_sp_over_gamma_p":
            return self.points[i]
        return self.mean_gamma_sp / self.mean_gamma_p


@dataclass
class Output:
    rows: dict      # (scheme, sweep_value text, metric) -> (value, stderr or None)
    policies: dict  # (sweep_value, scheme) -> record
    meta: dict
    exit_code: int


def load_output(out_dir: Path, exit_code: int) -> Output:
    """Parse the three output files; raises OSError or ValueError if unreadable."""
    rows: dict = {}
    with (out_dir / "results.csv").open(newline="") as fh:
        for r in csv.DictReader(fh):
            key = (r["scheme"], r["sweep_value"], r["metric"])
            if key in rows:
                raise ValueError(f"duplicate row {key}")
            rows[key] = (float(r["value"]), float(r["stderr"]) if r["stderr"] else None)
    policies = {}
    for line in (out_dir / "policies.jsonl").read_text().splitlines():
        rec = json.loads(line)
        policies[(rec["sweep_value"], rec["scheme"])] = rec
    meta = json.loads((out_dir / "run-metadata.json").read_text())
    return Output(rows, policies, meta, exit_code)


def results_digest(out_dir: Path) -> str:
    return hashlib.sha256((out_dir / "results.csv").read_bytes()).hexdigest()


# -- independent reference values -------------------------------------------------


def best_rate(mean_snr: float) -> float:
    """Maximizer of r * exp(-(2^r - 1) / mean_snr) by golden-section search."""
    def f(r):
        return r * math.exp(-(2.0 ** r - 1.0) / mean_snr)

    lo, hi = 0.0, 40.0
    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = hi - g * (hi - lo), lo + g * (hi - lo)
    fa, fb = f(a), f(b)
    for _ in range(200):
        if fa < fb:
            lo, a, fa = a, b, fb
            b = lo + g * (hi - lo)
            fb = f(b)
        else:
            hi, b, fb = b, a, fa
            a = hi - g * (hi - lo)
            fa = f(a)
    return 0.5 * (lo + hi)


def _rates(out: Output):
    r = out.meta.get("rates", {})
    return r.get("r_s"), r.get("r_p")


def activation_ratio(expect: Expect, r_p: float) -> float:
    """r* = (1/f - 1) / (2^R_p - 1): the cross-link ratio where the floor binds."""
    return (1.0 / expect.fraction - 1.0) / (2.0 ** r_p - 1.0)


def _side_of_rstar(expect: Expect, i: int, r_star: float) -> int:
    """-1 below r*, +1 above, 0 too close to call."""
    ratio = expect.sp_ratio(i)
    if abs(ratio / r_star - 1.0) < RSTAR_MARGIN:
        return 0
    return -1 if ratio < r_star else 1


def _value(out: Output, expect: Expect, i: int, scheme: str, metric: str):
    row = out.rows.get((scheme, repr(expect.points[i]), metric))
    return None if row is None else row[0]


# -- the checks ---------------------------------------------------------------------


def check_exit(expect: Expect, out: Output) -> list[Failure]:
    if out.exit_code != 0:
        return [Failure("exit", None, f"CLI exited with {out.exit_code}")]
    return []


def check_rows(expect: Expect, out: Output) -> list[Failure]:
    fails = []
    wanted = set()
    for i, v in enumerate(expect.points):
        for scheme, metrics in [("genie", GENIE_METRICS)] + [
            (s, SCHEME_METRICS) for s in expect.schemes
        ]:
            for m in metrics:
                key = (scheme, repr(v), m)
                wanted.add(key)
                if key not in out.rows:
                    fails.append(Failure("rows", (i, None if scheme == "genie" else scheme),
                                         f"missing row {key}"))
    extra = set(out.rows) - wanted
    if extra:
        fails.append(Failure("rows", None, f"{len(extra)} unexpected rows, e.g. {min(extra)}"))
    return fails


def check_rates(expect: Expect, out: Output) -> list[Failure]:
    fails = []
    for name, got, snr in zip(("r_s", "r_p"), _rates(out), (expect.mean_gamma_s, expect.mean_gamma_p)):
        want = best_rate(snr)
        if got is None or not abs(got / want - 1.0) <= RATE_REL_TOL:
            fails.append(Failure("rates", None, f"{name} = {got}, optimum {want}"))
    return fails


def check_floor(expect: Expect, out: Output) -> list[Failure]:
    _, r_p = _rates(out)
    if r_p is None:
        return []
    want = expect.fraction * math.exp(-(2.0 ** r_p - 1.0) / expect.mean_gamma_p)
    fails = []
    for i in range(len(expect.points)):
        for s in ("genie",) + expect.schemes:
            got = _value(out, expect, i, s, "constraint_min")
            if got is not None and not abs(got - want) <= FLOOR_TOL:
                fails.append(Failure("floor", (i, None if s == "genie" else s),
                                     f"{s} constraint_min {got} != {want}"))
    return fails


def check_order(expect: Expect, out: Output) -> list[Failure]:
    present = [s for s in ORDER if s == "genie" or s in expect.schemes]
    fails = []
    for i in range(len(expect.points)):
        vals = [(s, _value(out, expect, i, s, "analytic_su_throughput")) for s in present]
        vals = [(s, v) for s, v in vals if v is not None]
        for (a, va), (b, vb) in zip(vals, vals[1:]):
            if not va >= vb - ORDER_TOL:
                fails.append(Failure("order", (i, None), f"{a} {va} < {b} {vb}"))
    return fails


def check_genie(expect: Expect, out: Output) -> list[Failure]:
    r_s, r_p = _rates(out)
    if r_s is None or r_p is None:
        return []
    p = math.exp(-(2.0 ** r_s - 1.0) / expect.mean_gamma_s)
    tol = REGION_SIGMAS * math.sqrt(p * (1.0 - p) / expect.region_samples)
    r_star = activation_ratio(expect, r_p)
    fails = []
    for i in range(len(expect.points)):
        g = _value(out, expect, i, "genie", "analytic_su_throughput")
        if g is None:
            continue
        if not g <= p + tol:
            fails.append(Failure("genie", (i, None), f"genie {g} above ceiling {p} + {tol}"))
        elif _side_of_rstar(expect, i, r_star) < 0 and not abs(g - p) <= tol:
            fails.append(Failure("genie", (i, None), f"genie {g} != {p} below r*"))
    return fails


def check_pu_floor(expect: Expect, out: Output) -> list[Failure]:
    fails = []
    for i, s in expect.ops:
        pu = _value(out, expect, i, s, "analytic_pu_throughput")
        floor = _value(out, expect, i, s, "constraint_min")
        if pu is not None and floor is not None and not pu >= floor - PU_FLOOR_TOL:
            fails.append(Failure("pu_floor", (i, s), f"{s} PU {pu} below floor {floor}"))
    return fails


def check_mc(expect: Expect, out: Output) -> list[Failure]:
    fails = []
    for i, s in expect.ops:
        an = _value(out, expect, i, s, "analytic_su_throughput")
        mc = out.rows.get((s, repr(expect.points[i]), "mc_su_throughput"))
        if an is None or mc is None:
            continue
        val, se = mc
        if se is None or not abs(val - an) <= MC_SIGMAS * se:
            fails.append(Failure("mc", (i, s), f"{s} MC {val} (se {se}) vs analytic {an}"))
    return fails


def check_mu(expect: Expect, out: Output) -> list[Failure]:
    fails = []
    for i, s in expect.ops:
        rec = out.policies.get((expect.points[i], s))
        if rec is None:
            fails.append(Failure("mu", (i, s), f"no policy record for {s}"))
            continue
        bad = [st["mu"] for st in rec["states"] if not 0.0 <= st["mu"] <= 1.0]
        if bad:
            fails.append(Failure("mu", (i, s), f"{s} mu outside [0, 1]: {bad[:3]}"))
    return fails


def check_activation(expect: Expect, out: Output) -> list[Failure]:
    """No multiplier below r*; chain decoding binds the floor above it."""
    _, r_p = _rates(out)
    if r_p is None:
        return []
    r_star = activation_ratio(expect, r_p)
    fails = []
    for i, s in expect.ops:
        rec = out.policies.get((expect.points[i], s))
        side = _side_of_rstar(expect, i, r_star)
        if rec is None or side == 0:
            continue
        if side < 0 and rec["multiplier"] != 0.0:
            fails.append(Failure("activation", (i, s),
                                 f"{s} multiplier {rec['multiplier']} below r* {r_star}"))
        if side > 0 and s == "chain_decoding":
            pu = _value(out, expect, i, s, "analytic_pu_throughput")
            floor = _value(out, expect, i, s, "constraint_min")
            if not rec["multiplier"] > 0.0:
                fails.append(Failure("activation", (i, s), f"zero multiplier above r* {r_star}"))
            elif pu is not None and floor is not None and not abs(pu - floor) <= PU_FLOOR_TOL:
                fails.append(Failure("activation", (i, s), f"floor slack above r*: {pu} vs {floor}"))
    return fails


def check_invariants(expect: Expect, out: Output) -> list[Failure]:
    if not expect.check_invariants:
        return []
    if out.meta.get("invariants_checked") is not True or out.meta.get("invariant_violations") != []:
        return [Failure("invariants", None,
                        f"checked={out.meta.get('invariants_checked')}, "
                        f"violations={out.meta.get('invariant_violations')!r:.200}")]
    return []


CHECKS = (
    check_exit, check_rows, check_rates, check_floor, check_order, check_genie,
    check_pu_floor, check_mc, check_mu, check_activation, check_invariants,
)


def check_output(expect: Expect, out_dir: Path, exit_code: int) -> list[Failure]:
    try:
        out = load_output(out_dir, exit_code)
    except (OSError, ValueError, KeyError) as e:
        return [Failure("load", None, f"unreadable output (exit {exit_code}): {e}")]
    return [f for check in CHECKS for f in check(expect, out)]


def check_digest(digest: str, reference: str | None, what: str) -> list[Failure]:
    """results.csv must be byte-identical to an earlier run of the same code."""
    if reference is not None and digest != reference:
        return [Failure("digest", None, f"results.csv differs from {what}")]
    return []


def failed_ops(expect: Expect, fails: list[Failure]) -> int:
    """Number of operations condemned by `fails`."""
    if any(f.key is None for f in fails):
        return len(expect.ops)
    bad = {f.key for f in fails}
    return sum(1 for i, s in expect.ops if (i, s) in bad or (i, None) in bad)
