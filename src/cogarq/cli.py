"""Experiment orchestration and command-line entry point.

Reads a flat key=value configuration, sweeps one SNR ratio, and for every
sweep point and scheme: computes the outcome-region probabilities, solves
the constrained access policy on that scheme's compact model, evaluates it
analytically, and runs the Monte Carlo simulator.  Results land in a tidy
CSV plus a JSON-lines dump of the solved policies and a metadata file
recording derived quantities and modeling assumptions.  Rendering is left
to external tools.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .channel import SU_CLEAN, AvgSnrConfig, RatePair, exact_region_probabilities, optimize_rate
from .mdp import (
    InfeasibleConstraintError,
    SolveReport,
    build_kernel,
    enumerate_space,
    solve_constrained,
)
from .pu_system import PuConfig
from .simulator import (
    SchemeKind,
    SystemConfig,
    TraceInvariantChecker,
    run,
    scheme_model,
)

__all__ = ["ExperimentConfig", "ConfigError", "load_config", "run_experiment", "main"]

SWEEP_PARAMS = ("gamma_ps_over_gamma_s", "gamma_sp_over_gamma_p", "none")
# The mean SNR each sweep multiplies by its ratio.
_SWEPT_MEAN = {"gamma_ps_over_gamma_s": "mean_gamma_s", "gamma_sp_over_gamma_p": "mean_gamma_p"}
# `optimize_rate` doubles its bracket while the throughput still rises, and
# its 2.0 ** r overflows from r = 1024, which it reaches for mean SNRs above
# about 1.9e154.
_MAX_OPTIMIZED_MEAN = 1e150
# (2^rate_s - 1)(2^rate_p - 1) < 2^(rate_s + rate_p), which is finite below 2^1024.
_MAX_RATE_SUM = 1023
_SCHEMES = {s.value: s for s in SchemeKind}


class ConfigError(ValueError):
    """Invalid configuration; `key` names the offending key, or is None.

    A rule across keys also names the other keys it reads in `partners`.
    """

    def __init__(self, message: str, key: str | None, partners: tuple = ()):
        super().__init__(message)
        self.key = key
        self.partners = partners


@dataclass
class ExperimentConfig:
    mean_gamma_s: float
    mean_gamma_p: float
    mean_gamma_ps: float = 0.0
    mean_gamma_sp: float = 0.0
    sweep: str = "none"
    sweep_values: tuple = (1.0,)
    rate_s: float | str = "optimize"
    rate_p: float | str = "optimize"
    r_max: int = 5
    d_max: int = 5
    q_max: int = 1
    constraint_fraction: float = 0.8
    schemes: tuple = tuple(s.value for s in SchemeKind)
    seed: int = 1
    n_slots: int = 100_000

    def validate(self):
        """Check every key against its range in config-schema.txt."""

        def require(ok, key: str, rule: str, partners: tuple = ()):
            if not ok:
                raise ConfigError(
                    f"{key} must be {rule}, got {getattr(self, key)!r}", key, partners)

        for key in ("mean_gamma_s", "mean_gamma_p", "mean_gamma_ps", "mean_gamma_sp"):
            value = getattr(self, key)
            require(math.isfinite(value) and value >= 0.0, key, "finite and >= 0")
        require(self.sweep in SWEEP_PARAMS, "sweep", f"one of {SWEEP_PARAMS}")
        require(self.sweep_values and all(math.isfinite(v) and v >= 0.0 for v in self.sweep_values),
                "sweep_values", "a nonempty list of finite ratios >= 0")
        require(len(set(self.sweep_values)) == len(self.sweep_values), "sweep_values",
                "free of repeats, compared as numbers")
        swept = _SWEPT_MEAN.get(self.sweep)
        if swept:
            require(all(math.isfinite(v * getattr(self, swept)) for v in self.sweep_values),
                    "sweep_values", f"finite when multiplied by {swept}", (swept,))
        for key, mean in (("rate_s", "mean_gamma_s"), ("rate_p", "mean_gamma_p")):
            rate = getattr(self, key)
            if rate == "optimize":
                require(getattr(self, mean) > 0.0, key, f"a fixed rate when {mean} = 0", (mean,))
                require(getattr(self, mean) <= _MAX_OPTIMIZED_MEAN, mean,
                        f"<= {_MAX_OPTIMIZED_MEAN:g} when {key} = optimize", (key,))
            else:
                require(math.isfinite(rate) and rate > 0.0, key, "finite and > 0, or optimize")
        fixed = [k for k in ("rate_s", "rate_p") if getattr(self, k) != "optimize"]
        if fixed:
            # Only a fixed rate can bring the sum to the limit, since optimized
            # rates stay below 500 for means up to _MAX_OPTIMIZED_MEAN.
            pair = _resolve_rates(self)
            rates = {"rate_s": pair.r_s, "rate_p": pair.r_p}
            key = max(fixed, key=rates.get)
            other = "rate_p" if key == "rate_s" else "rate_s"
            require(rates[key] + rates[other] < _MAX_RATE_SUM, key,
                    f"below {_MAX_RATE_SUM} - {other} = {_MAX_RATE_SUM - rates[other]!r} "
                    f"({other} = {rates[other]!r}), so that the region probabilities' "
                    "(2^rate_s - 1)(2^rate_p - 1) stays finite", (other,))
        require(self.r_max >= 1, "r_max", ">= 1")
        # Neither q_max, the PU's queue capacity, nor d_max, its delay
        # deadline, affects anything: the PU is backlogged and sends in every
        # slot, so a packet's delay is its try count, which r_max <= d_max
        # ends first.  Both are still validated, so that older configs load.
        require(self.d_max >= max(2, self.r_max), "d_max", ">= max(2, r_max)", ("r_max",))
        require(self.q_max >= 1, "q_max", ">= 1")
        require(0.0 <= self.constraint_fraction <= 1.0, "constraint_fraction", "in [0, 1]")
        require(all(s in _SCHEMES for s in self.schemes), "schemes", f"among {tuple(_SCHEMES)}")
        require(len(set(self.schemes)) == len(self.schemes), "schemes", "free of repeats")
        require(self.seed >= 0, "seed", ">= 0")
        require(self.n_slots >= 1, "n_slots", ">= 1")
        return self


_INT_KEYS = {"r_max", "d_max", "q_max", "seed", "n_slots"}
_FLOAT_KEYS = {
    "mean_gamma_s", "mean_gamma_p", "mean_gamma_ps", "mean_gamma_sp",
    "constraint_fraction",
}
_STR_KEYS = {"sweep"}


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse the flat key=value file; errors carry the line number."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        lineno = data.count(b"\n", 0, e.start) + 1
        raise ConfigError(f"{path}:{lineno}: not UTF-8 text: {e.reason}", None) from None
    values: dict = {}
    lines: dict = {}
    # Lines end at "\n" alone, as the non-UTF-8 message counts them; the other
    # separators `str.splitlines` knows are ordinary characters here.
    for lineno, raw in enumerate(text.split("\n"), start=1):
        raw = raw.removesuffix("\r")
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}", None)
        key, _, val = (x.strip() for x in line.partition("="))
        if key in lines:
            raise ConfigError(
                f"{path}:{lineno}: {key} is set twice, first on line {lines[key]}", key)
        lines[key] = lineno
        try:
            if key in _INT_KEYS:
                values[key] = int(val)
            elif key in _FLOAT_KEYS:
                values[key] = float(val)
            elif key in _STR_KEYS:
                values[key] = val
            elif key in ("rate_s", "rate_p"):
                values[key] = val if val == "optimize" else float(val)
            elif key == "sweep_values":
                values[key] = tuple(float(x) for x in val.split(",") if x.strip())
            elif key == "schemes":
                values[key] = tuple(x.strip() for x in val.split(",") if x.strip())
            else:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}", key)
        except ConfigError:
            raise
        except ValueError as e:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {e}", key) from None
    for req in ("mean_gamma_s", "mean_gamma_p"):
        if req not in values:
            raise ConfigError(f"{path}: missing required key {req!r}", req)
    try:
        cfg = ExperimentConfig(**values).validate()
    except ConfigError as e:
        # A rule across keys that fails on a defaulted key points at the
        # key the file does set.
        key = next((k for k in (e.key, *e.partners) if k in lines), e.key)
        where = f"{path}:{lines[key]}" if key in lines else str(path)
        msg = str(e)
        if key != e.key:
            msg += f" ({e.key} is not set, so {key} = {values[key]!r} breaks the rule)"
        msg += "".join(f" ({k} is set on line {lines[k]})"
                       for k in e.partners if k in lines and k != key)
        raise ConfigError(f"{where}: {msg}", key) from None
    return cfg


def _resolve_rates(cfg: ExperimentConfig) -> RatePair:
    r_s = optimize_rate(cfg.mean_gamma_s) if cfg.rate_s == "optimize" else float(cfg.rate_s)
    r_p = optimize_rate(cfg.mean_gamma_p) if cfg.rate_p == "optimize" else float(cfg.rate_p)
    return RatePair(r_s=r_s, r_p=r_p)


def _point_snr(cfg: ExperimentConfig, value: float) -> AvgSnrConfig:
    ps, sp = cfg.mean_gamma_ps, cfg.mean_gamma_sp
    if cfg.sweep == "gamma_ps_over_gamma_s":
        ps = value * cfg.mean_gamma_s
    elif cfg.sweep == "gamma_sp_over_gamma_p":
        sp = value * cfg.mean_gamma_p
    return AvgSnrConfig(cfg.mean_gamma_s, ps, cfg.mean_gamma_p, sp)


def _run_seed(master: int, sweep_index: int) -> int:
    return int(np.random.SeedSequence([master, sweep_index]).generate_state(1)[0])


def _sweep_point(cfg: ExperimentConfig, rates: RatePair, index: int, check_invariants: bool):
    """Solve and simulate every scheme at one sweep point.

    Returns (rows, policy_records, violations, run_records, solve_records);
    a run record holds what results.csv leaves out of one
    simulator run: the counts of its compact-state walk, plus, for chain
    decoding, the high-water marks of its decoding graph
    and its cycle trims.  A solve record holds the LP diagnostics of one
    scheme's constrained solve.  Baseline policies are re-optimized on
    their own compact models under the same PU floor, so the comparison is
    between optimized schemes, not one policy reused.

    The genie-aided ceiling needs no solve.  Its receiver knows every PU
    packet in advance, so it has one phase and its rewards do not depend on
    the try count: each SU transmission earns w, the probability of a clean
    SU link, and costs the PU rho_0 - rho_1.  A policy's values depend only
    on the fraction phi of slots it sends in, and the optimum is the largest
    phi the floor allows, min(1, (rho_0 - floor) / (rho_0 - rho_1)).
    """
    value = cfg.sweep_values[index]
    snr = _point_snr(cfg, value)
    pu_cfg = PuConfig(r_max=cfg.r_max)
    system = SystemConfig(snr=snr, rates=rates, pu=pu_cfg)
    probs = exact_region_probabilities(snr.mean_gamma_s, snr.mean_gamma_ps, rates)
    success = system.success_probs()
    # The PU sends in every slot, so with the SU idle its throughput is its
    # decoding probability without interference.
    floor = cfg.constraint_fraction * success[0]
    seed = _run_seed(cfg.seed, index)

    rows = []
    policies = []
    violations: list[str] = []
    runs = []
    solves = []

    def add_row(scheme, metric, val, stderr=""):
        rows.append({
            "scheme": scheme, "sweep_param": cfg.sweep, "sweep_value": repr(value),
            "metric": metric, "value": repr(float(val)), "stderr": stderr,
            "seed": seed, "n_slots": cfg.n_slots,
        })

    def solve_for(name, model) -> SolveReport:
        space = enumerate_space(model, probs, success)
        report = solve_constrained(space, build_kernel(space), floor)
        mixed = report.randomized_state
        solves.append({
            "sweep_value": value,
            "scheme": name,
            "status": report.lp_status,
            "nit": report.lp_iterations,
            "reachable_states": report.reachable_states,
            "randomized_state": None if mixed is None else _state_record(mixed),
            "floor_slack": report.floor_slack,
        })
        return report

    regions, (rho0, rho1) = probs.as_array(), success
    phi = min(1.0, (rho0 - floor) / (rho0 - rho1)) if rho0 > rho1 else 1.0
    add_row("genie", "analytic_su_throughput", sum(regions[y - 1] for y in sorted(SU_CLEAN)) * phi)
    add_row("genie", "constraint_min", floor)

    for name in cfg.schemes:
        scheme = _SCHEMES[name]
        report = solve_for(name, scheme_model(scheme, pu_cfg))
        checker = TraceInvariantChecker(system, scheme) if check_invariants else None
        metrics = run(
            scheme, report.policy, system, seed, cfg.n_slots,
            trace_hook=checker.feed if checker else None,
        )
        if checker and not checker.report.ok:
            violations.extend(
                f"{name} @ {cfg.sweep}={value}: {v}" for v in checker.report.violations
            )
        add_row(name, "analytic_su_throughput", report.su_throughput)
        add_row(name, "analytic_pu_throughput", report.pu_throughput)
        add_row(name, "constraint_min", report.constraint_min)
        add_row(name, "mc_su_throughput", metrics.su_throughput, repr(metrics.su_se))
        add_row(name, "mc_pu_throughput", metrics.pu_throughput, repr(metrics.pu_se))
        add_row(name, "drop_rate", metrics.drop_rate)
        run_record = {
            "sweep_value": value,
            "scheme": name,
            "states_visited": metrics.states_visited,
            "steps_filled": metrics.steps_filled,
        }
        if scheme is SchemeKind.CHAIN_DECODING:
            run_record.update(
                graph_max_nodes=metrics.graph_max_nodes,
                graph_max_edges=metrics.graph_max_edges,
                graph_max_decoded=metrics.graph_max_decoded,
                cycle_trims=metrics.cycle_trims,
                cycle_trims_on_empty_graph=metrics.cycle_trims_on_empty_graph,
                trimmed_su=metrics.trimmed_su,
                graph_slots=metrics.graph_slots,
            )
        runs.append(run_record)
        policies.append({
            "sweep_value": value,
            "scheme": name,
            "multiplier": report.multiplier,
            "constraint_min": report.constraint_min,
            "constraint_value": report.constraint_value,
            "mix_weight": report.mix_weight,
            "states": [
                {**_state_record(s), "mu": report.policy.probs[s]}
                for s in sorted(report.policy.probs, key=lambda s: (s.t, s.cd))
            ],
        })
    return rows, policies, violations, runs, solves


def _state_record(s) -> dict:
    return {"cd": list(s.cd), "t": s.t}


def run_experiment(
    cfg_path: str | Path,
    out_dir: str | Path,
    check_invariants: bool = False,
    seed_override: int | None = None,
    slots_override: int | None = None,
) -> dict:
    """Execute the configured sweep and write the three output files.

    The sweep points run one after another in this process, in order, and
    their rows and records are written in that order.
    """
    cfg = load_config(cfg_path)
    if seed_override is not None:
        cfg.seed = seed_override
    if slots_override is not None:
        cfg.n_slots = slots_override
    cfg.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rates = _resolve_rates(cfg)

    lists = rows, policies, violations, runs, solves = [], [], [], [], []
    for i in range(len(cfg.sweep_values)):
        for acc, part in zip(lists, _sweep_point(cfg, rates, i, check_invariants)):
            acc.extend(part)

    results_path = out / "results.csv"
    with results_path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=[
            "scheme", "sweep_param", "sweep_value", "metric", "value",
            "stderr", "seed", "n_slots",
        ])
        writer.writeheader()
        writer.writerows(rows)

    policies_path = out / "policies.jsonl"
    with policies_path.open("w") as fh:
        for rec in policies:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")

    meta = {
        "version": __version__,
        "config": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in vars(cfg).items()},
        "rates": {"r_s": rates.r_s, "r_p": rates.r_p},
        "assumptions": [
            "baseline access policies re-optimized per scheme on scheme-specific "
            "compact models under the shared PU floor",
            "region probabilities in closed form from the exponential gain laws",
            "the PU is backlogged and transmits in every slot, from slot 0 on, and its "
            "throughput carries the floor; neither q_max (any value >= 1 is accepted) nor "
            "d_max (any value >= max(2, r_max) is accepted) affects the output",
        ],
        "invariants_checked": check_invariants,
        "invariant_violations": violations,
        "simulator_runs": runs,
        "solves": solves,
    }
    meta_path = out / "run-metadata.json"
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")

    if check_invariants and violations:
        raise RuntimeError(
            f"{len(violations)} trace-invariant violations; see {meta_path}"
        )
    return {"results": results_path, "policies": policies_path, "metadata": meta_path}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cogarq",
        description="Sweep experiments for the shared-spectrum HARQ link simulator",
    )
    parser.add_argument("config", help="path to the flat key=value experiment config")
    parser.add_argument("--output-dir", "-o", default="out", help="output directory")
    parser.add_argument("--check-invariants", action="store_true",
                        help="verify per-trace invariants on every run")
    parser.add_argument("--seed-override", type=int, default=None)
    parser.add_argument("--slots", type=int, default=None,
                        help="override the configured slot count")
    args = parser.parse_args(argv)
    try:
        paths = run_experiment(
            args.config, args.output_dir,
            check_invariants=args.check_invariants,
            seed_override=args.seed_override,
            slots_override=args.slots,
        )
    except (ConfigError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InfeasibleConstraintError as e:
        print(f"infeasible constraint: {e}", file=sys.stderr)
        return 3
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for name, p in paths.items():
        print(f"{name}: {p}")
    # Interpreter exit ends in full collections over every object of the
    # ~800 modules that numpy and scipy load, about 0.15 s, as long as a
    # short sweep's solves.  Freezing moves every tracked object out of the
    # collector's reach, so exit skips them.  One collection first (about
    # 0.03 s) leaves no garbage frozen for a caller that runs `main` in its
    # own process; without it, exit also raised peak RSS by about 0.8 MB.
    gc.collect()
    gc.freeze()
    return 0


if __name__ == "__main__":
    sys.exit(main())
