"""cogarq benchmark: the CLI timed end to end, or traced layer by layer.

    python3 perfbench/run.py --workload readme_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the root of a source checkout; the package is imported from
`src/`.  Each CLI invocation is a fresh process on a config generated from
the seed (a closed loop of one process, `workers = 1`).

With --trace 0 the run invokes the CLI on the whole workload until
--seconds would be overrun, at least once, with three set-up probes
(processes that exit when the first sweep point starts) before and three
after, and reports the medians of wall time, set-up time, CPU time and
peak RSS.  With --trace 1 it runs the workload once directly through
`python3 -m cogarq.cli` and once under `traced.py`, and reports the
per-layer metrics of the traced run.  Every invocation's output files are
checked (see checks.py), and results.csv must be byte-identical across
every run of the same code, workload and seed made in this checkout.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from traced import LAYERS
from workloads import WORKLOADS, parse_config

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 6
# The layers' self times must add up to the traced process's wall time
# within this share; the gap is interpreter start-up before traced.py runs
# and exit after it returns.
SELF_TOL = 0.05
SCHEMES = checks.ORDER[1:]


class Invocation:
    """One child process, run to its end, and its resource use."""

    def __init__(self, cmd: list[str], env: dict, out_dir: Path, log: Path):
        shutil.rmtree(out_dir, ignore_errors=True)
        with log.open("w") as err:
            self.start = time.monotonic()
            proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err)
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            self.end = time.monotonic()
        proc.returncode = self.exit_code = os.waitstatus_to_exitcode(status)
        self.wall = self.end - self.start
        self.cpu = ru.ru_utime + ru.ru_stime
        self.rss_mb = ru.ru_maxrss / 1024.0
        self.out_dir = out_dir
        self.log = log


class Run:
    def __init__(self, root: Path, workload: str, seed: int, trace: bool):
        self.wl = WORKLOADS[workload]
        self.work = root / ".perfbench" / f"{workload}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        text = self.wl.config_text(seed)
        self.cfg = self.work / "experiment.cfg"
        self.cfg.write_text(text)
        self.expect = checks.Expect.from_config(
            parse_config(text), "--check-invariants" in self.wl.cli_flags)
        src = root / "src"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
        self.digests = root / ".perfbench" / "digests.json"
        self.digest_key = f"{workload}/seed={seed}/code={code_digest(src)}"
        self.attempted = 0
        self.failures: list[checks.Failure] = []
        self.failed = 0
        self.n = 0

    def invoke(self, prefix: list[str]) -> Invocation:
        self.n += 1
        out = self.work / f"out{self.n}"
        inv = Invocation(prefix + [str(self.cfg), "-o", str(out), *self.wl.cli_flags],
                         self.env, out, self.work / f"stderr{self.n}.txt")
        fails = checks.check_output(self.expect, out, inv.exit_code)
        if not fails:
            fails = self.check_digest(checks.results_digest(out))
        if inv.exit_code != 0:
            tail = inv.log.read_text()[-500:]
            fails.append(checks.Failure("stderr", None, tail))
        self.attempted += len(self.expect.ops)
        self.failed += checks.failed_ops(self.expect, fails)
        self.failures += fails
        return inv

    def launch(self, marker: Path, *flags: str) -> list[str]:
        return [sys.executable, str(HERE / "launch.py"), str(marker), *flags]

    def setup_probe(self) -> float:
        marker = self.work / "setup-probe"
        marker.unlink(missing_ok=True)
        inv = Invocation(self.launch(marker, "--setup-only") + [str(self.cfg), "-o",
                         str(self.work / "probe")], self.env, self.work / "probe",
                         self.work / "probe-stderr.txt")
        if inv.exit_code != 0 or not marker.exists():
            raise SystemExit(f"set-up probe failed (exit {inv.exit_code}): "
                             f"{inv.log.read_text()[-500:]}")
        return float(marker.read_text()) - inv.start

    def timed(self, seconds: float) -> dict:
        # Half the set-up probes run before the invocations and half after,
        # so that set-up is sampled across the whole run.
        t0 = time.monotonic()
        setups = [self.setup_probe() for _ in range(SETUP_PROBES // 2)]
        probes_s = time.monotonic() - t0
        invs = []
        while not invs or (time.monotonic() - t0 + probes_s
                           + statistics.median(i.wall for i in invs) <= seconds):
            marker = self.work / f"setup{self.n + 1}"
            inv = self.invoke(self.launch(marker))
            invs.append(inv)
            if marker.exists():
                setups.append(float(marker.read_text()) - inv.start)
        setups += [self.setup_probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        return {
            "wall_s": (statistics.median(i.wall for i in invs), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "cpu_s": (statistics.median(i.cpu for i in invs), "s"),
            "peak_rss_mb": (statistics.median(i.rss_mb for i in invs), "MB"),
        }

    def traced(self) -> dict:
        direct = self.invoke([sys.executable, "-m", "cogarq.cli"])
        trace_path = self.work / "trace.json"
        traced = self.invoke([sys.executable, str(HERE / "traced.py"), str(trace_path)])
        if not trace_path.exists():
            raise SystemExit(f"traced run wrote no trace: {traced.log.read_text()[-500:]}")
        trace = json.loads(trace_path.read_text())
        metrics = layer_metrics(trace, traced.out_dir)
        self_sum = sum(trace["self_s"].values())
        if abs(self_sum - traced.wall) > SELF_TOL * traced.wall:
            self.failures.append(checks.Failure(
                "trace", None, f"layer self times add to {self_sum:.3f} s, "
                f"traced wall time is {traced.wall:.3f} s"))
        metrics["trace.overhead_s"] = (traced.wall - direct.wall, "s")
        print(f"traced wall {traced.wall:.3f} s = sum of layer self times "
              f"{self_sum:.3f} s + {traced.wall - self_sum:.3f} s outside traced.py")
        return metrics

    def check_digest(self, digest: str) -> list[checks.Failure]:
        """Compare with the first results.csv of this code, workload and seed here."""
        known = json.loads(self.digests.read_text()) if self.digests.exists() else {}
        if self.digest_key not in known:
            known[self.digest_key] = digest
            tmp = self.digests.with_suffix(".tmp")
            tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
            tmp.replace(self.digests)
        return checks.check_digest(digest, known[self.digest_key],
                                   "an earlier run of this code and seed")

    def result(self, metrics: dict) -> dict:
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        }


def code_digest(src: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(src.rglob("*.py")):
        h.update(str(p.relative_to(src)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def _median(xs, scale=1.0):
    return statistics.median(xs) * scale if xs else 0.0


def layer_metrics(trace: dict, out_dir: Path) -> dict:
    """Per-layer metrics from the traced run's spans, aggregates and samples."""
    spans, aggs, samples, counters = (trace[k] for k in ("spans", "aggs", "samples", "counters"))

    def durations(name):
        return [s["end"] - s["start"] for s in spans if s["name"] == name]

    def calls(name, within=None):
        per = aggs.get(name, {})
        return sum(c for idx, (c, _) in per.items() if within is None or int(idx) in within)

    runs = [(i, s) for i, s in enumerate(spans) if s["name"] == "simulator.run"]
    slots = sum(s["n_slots"] for _, s in runs)
    run_idx = {i for i, _ in runs}
    selections = calls("cd_protocol.select_label")
    enumerations = [s for s in spans if s["name"] == "mdp.enumerate_space"]
    points = [s for s in spans if s["name"] == "cli._sweep_point"]
    experiment = [s for s in spans if s["name"] == "cli.run_experiment"]
    m = {}
    for scheme in SCHEMES:
        rates = [s["n_slots"] / (s["end"] - s["start"]) for _, s in runs if s["scheme"] == scheme]
        m[f"simulator.slots_per_s.{scheme}"] = (_median(rates), "slots/s")
    m["simulator.checker_feed_us"] = (
        _median(samples.get("simulator.TraceInvariantChecker.feed", []), 1e6), "us")
    m["simulator.belief_cache_hit_ratio"] = (
        1.0 - calls("virtual_state.next_belief", run_idx) / slots if slots else 0.0, "ratio")
    m["cd_graph.record_slot_calls"] = (calls("cd_graph.record_slot"), "count")
    m["cd_graph.record_slot_us"] = (_median(samples.get("cd_graph.record_slot", []), 1e6), "us")
    m["cd_graph.closure_calls"] = (calls("cd_graph.closure"), "count")
    m["cd_graph.root_calls"] = (calls("cd_graph.root"), "count")
    m["cd_graph.max_nodes"] = (counters.get("max_nodes", 0), "count")
    m["cd_graph.max_edges"] = (counters.get("max_edges", 0), "count")
    m["cd_graph.discarded_su"] = (counters.get("discarded_su", 0), "count")
    m["cd_protocol.select_label_calls"] = (selections, "count")
    m["cd_protocol.root_retx_ratio"] = (
        counters.get("root_retx", 0) / selections if selections else 0.0, "ratio")
    m["cd_protocol.trimmed_su"] = (counters.get("trimmed_su", 0), "count")
    m["channel.region_probabilities_ms"] = (
        _median(durations("channel.region_probabilities"), 1e3), "ms")
    m["channel.region_probabilities_calls"] = (
        len(durations("channel.region_probabilities")), "count")
    m["channel.optimize_rate_ms"] = (_median(durations("channel.optimize_rate"), 1e3), "ms")
    m["mdp.enumerate_space_ms"] = (_median(durations("mdp.enumerate_space"), 1e3), "ms")
    m["mdp.build_kernel_ms"] = (_median(durations("mdp.build_kernel"), 1e3), "ms")
    m["mdp.solve_constrained_ms"] = (_median(durations("mdp.solve_constrained"), 1e3), "ms")
    m["mdp.evaluate_policy_us"] = (_median(durations("mdp.evaluate_policy"), 1e6), "us")
    m["mdp.evaluate_policy_calls"] = (len(durations("mdp.evaluate_policy")), "count")
    m["mdp.states"] = (max((s["states"] for s in enumerations), default=0), "count")
    m["mdp.reachable_states"] = (max((s["reachable"] for s in enumerations), default=0), "count")
    m["virtual_state.next_belief_calls"] = (calls("virtual_state.next_belief"), "count")
    m["virtual_state.expected_pu_reward_calls"] = (
        calls("virtual_state.expected_pu_reward"), "count")
    m["pu_system.transmit_prob_calls"] = (calls("pu_system.PuConfig.transmit_prob"), "count")
    m["pu_tracker.calls"] = (
        sum(calls(n) for n in aggs if n.startswith("pu_tracker.")), "count")
    m["cli.sweep_point_s"] = (_median([s["end"] - s["start"] for s in points]), "s")
    m["cli.write_s"] = (
        experiment[0]["end"] - max((s["end"] for s in points), default=experiment[0]["start"])
        if experiment else 0.0, "s")
    m["cli.output_bytes"] = (sum(p.stat().st_size for p in out_dir.iterdir()), "B")
    # pu_tracker is off the production path: its self time is 0 by
    # construction, and pu_tracker.calls already shows that.
    for layer in LAYERS:
        if layer != "pu_tracker":
            m[f"{layer}.self_s"] = (trace["self_s"][layer], "s")
    return m


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(root, workload, seed, trace)
    # Compile the package's bytecode once, which users pay only on first use.
    subprocess.run([sys.executable, "-c", "import cogarq.cli"], env=run.env, check=True)
    metrics = run.traced() if trace else run.timed(seconds)
    print(f"workload {workload}, seed {seed}, trace {int(trace)}: "
          f"{run.attempted} operations attempted, {run.failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for f in run.failures[:20]:
        print(f"  FAIL [{f.check}] {f.key}: {f.message}")
    return run.result(metrics)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "cogarq" / "cli.py").is_file():
        print(f"error: no cogarq sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(root, n, args.seed, args.seconds, bool(args.trace)) for n in names]
    if len(results) == 1:
        out = results[0]
    else:
        out = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}.{k}": v for n, r in zip(names, results)
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
