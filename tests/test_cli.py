import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogarq import cli
from cogarq.channel import exact_region_probabilities
from cogarq.cli import ConfigError, load_config, main, run_experiment
from cogarq.mdp import build_kernel, enumerate_space, evaluate_policy
from cogarq.pu_system import PuConfig
from cogarq.simulator import SchemeKind, SystemConfig, scheme_model

from _oracles import GenieModel

GOOD = """
# minimal sweep for testing
mean_gamma_s = 5
mean_gamma_p = 10
mean_gamma_sp = 2
sweep = gamma_ps_over_gamma_s
sweep_values = 0.2, 1
rate_s = optimize
rate_p = optimize
r_max = 3
d_max = 3
q_max = 1
constraint_fraction = 0.8
schemes = chain_decoding, no_fic_bic
seed = 9
n_slots = 3000
"""


def write(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_config_roundtrip(tmp_path):
    cfg = load_config(write(tmp_path, GOOD))
    assert cfg.sweep_values == (0.2, 1.0)
    assert cfg.schemes == ("chain_decoding", "no_fic_bic")
    assert cfg.rate_s == "optimize"


def test_load_config_unknown_key_reports_line(tmp_path):
    p = write(tmp_path, "mean_gamma_s = 5\nmean_gamma_p = 10\nbogus = 1\n")
    with pytest.raises(ConfigError) as e:
        load_config(p)
    assert ":3:" in str(e.value)


def test_load_config_bad_value_reports_line(tmp_path):
    p = write(tmp_path, "mean_gamma_s = five\n")
    with pytest.raises(ConfigError) as e:
        load_config(p)
    assert ":1:" in str(e.value)


def test_load_config_missing_required(tmp_path):
    p = write(tmp_path, "mean_gamma_s = 5\n")
    with pytest.raises(ConfigError):
        load_config(p)


def test_load_config_rejects_bad_scheme(tmp_path):
    p = write(tmp_path, GOOD + "schemes = warp_drive\n")
    with pytest.raises(ConfigError):
        load_config(p)


def test_run_experiment_outputs(tmp_path):
    cfg = write(tmp_path, GOOD)
    out = tmp_path / "out"
    paths = run_experiment(cfg, out)
    rows = list(csv.DictReader(paths["results"].open()))
    assert rows, "results.csv should not be empty"
    schemes = {r["scheme"] for r in rows}
    assert {"chain_decoding", "no_fic_bic", "genie"} <= schemes
    metrics = {r["metric"] for r in rows}
    assert {"analytic_su_throughput", "mc_su_throughput", "mc_pu_throughput",
            "constraint_min"} <= metrics
    # policies parse and carry per-state probabilities
    pols = [json.loads(line) for line in paths["policies"].open()]
    assert all(0.0 <= st["mu"] <= 1.0 for p in pols for st in p["states"])
    meta = json.loads(paths["metadata"].read_text())
    assert meta["assumptions"]
    assert meta["rates"]["r_p"] > 0


def test_run_experiment_is_bit_identical(tmp_path):
    cfg = write(tmp_path, GOOD)
    p1 = run_experiment(cfg, tmp_path / "a")
    p2 = run_experiment(cfg, tmp_path / "b")
    assert p1["results"].read_bytes() == p2["results"].read_bytes()
    assert p1["policies"].read_bytes() == p2["policies"].read_bytes()


def test_run_experiment_respects_overrides(tmp_path):
    cfg = write(tmp_path, GOOD)
    paths = run_experiment(cfg, tmp_path / "o", seed_override=123, slots_override=1500)
    rows = list(csv.DictReader(paths["results"].open()))
    assert all(r["n_slots"] == "1500" for r in rows)


def test_run_experiment_check_invariants_flag(tmp_path):
    cfg = write(tmp_path, GOOD)
    paths = run_experiment(cfg, tmp_path / "inv", check_invariants=True)
    meta = json.loads(paths["metadata"].read_text())
    assert meta["invariants_checked"] is True
    assert meta["invariant_violations"] == []


def test_metadata_reports_walk_and_graph_counts(tmp_path):
    cfg = write(tmp_path, GOOD)
    out = tmp_path / "meta"
    assert main([str(cfg), "-o", str(out)]) == 0
    runs = json.loads((out / "run-metadata.json").read_text())["simulator_runs"]
    assert [(r["sweep_value"], r["scheme"]) for r in runs] == [
        (v, s) for v in (0.2, 1.0) for s in ("chain_decoding", "no_fic_bic")]
    with open(out / "results.csv", newline="") as f:
        drops = {(float(row["sweep_value"]), row["scheme"]): float(row["value"])
                 for row in csv.DictReader(f) if row["metric"] == "drop_rate"}
    graph_keys = {"graph_max_nodes", "graph_max_edges", "cycle_trims",
                  "cycle_trims_on_empty_graph", "graph_max_decoded", "trimmed_su"}
    for r in runs:
        # every state but the initial one is first reached through a step
        assert 1 <= r["states_visited"] <= r["steps_filled"] + 1
        keys = {"sweep_value", "scheme", "states_visited", "steps_filled"}
        if r["scheme"] == "chain_decoding":
            assert set(r) == keys | graph_keys
            # an edge joins two stored nodes, and a cycle starts at least
            # every r_max = 3 slots
            assert r["graph_max_nodes"] >= 2 and r["graph_max_edges"] >= 1
            assert 0 < r["cycle_trims_on_empty_graph"] < r["cycle_trims"]
            assert 3000 / 3 <= r["cycle_trims"] <= 3000
            # the decoded slots remembered within one cycle of at most
            # r_max = 3 slots: its SU packets, its PU packet and stored ones
            assert 1 <= r["graph_max_decoded"] <= 3 + 1 + r["graph_max_nodes"]
            # the SU packets trimmed from the graph are among those dropped
            assert 0 < r["trimmed_su"] <= round(drops[r["sweep_value"], "chain_decoding"] * 3000)
        else:
            assert set(r) == keys


def test_q_max_does_not_change_the_output(tmp_path):
    # The PU is backlogged, so its queue capacity changes nothing the CLI writes
    # but the config echo.
    paths = [run_experiment(write(tmp_path, GOOD.replace("q_max = 1", f"q_max = {q}"),
                                  name=f"q{q}.cfg"), tmp_path / f"q{q}")
             for q in (1, 3)]
    assert paths[0]["results"].read_bytes() == paths[1]["results"].read_bytes()
    assert paths[0]["policies"].read_bytes() == paths[1]["policies"].read_bytes()
    metas = [json.loads(p["metadata"].read_text()) for p in paths]
    assert [m["config"].pop("q_max") for m in metas] == [1, 3]
    assert metas[0] == metas[1]
    # a compact state is the phase and the tracked try count
    states = [st for line in paths[0]["policies"].open() for st in json.loads(line)["states"]]
    assert states and all(set(st) == {"cd", "t", "mu"} for st in states)
    assert any("backlogged" in a and "q_max" in a for a in metas[0]["assumptions"])


@pytest.mark.parametrize("r_max,d_maxes", [(5, (5, 8)), (3, (3, 6))])
def test_d_max_does_not_change_the_output(tmp_path, r_max, d_maxes):
    # The PU sends in every slot, so a packet's delay is its try count and
    # the retransmission deadline r_max <= d_max ends it first: the delay
    # deadline changes nothing the CLI writes but the config echo.
    text = GOOD.replace("r_max = 3", f"r_max = {r_max}")
    paths = [run_experiment(write(tmp_path, text.replace("d_max = 3", f"d_max = {d}"),
                                  name=f"d{d}.cfg"), tmp_path / f"d{d}")
             for d in d_maxes]
    assert paths[0]["results"].read_bytes() == paths[1]["results"].read_bytes()
    assert paths[0]["policies"].read_bytes() == paths[1]["policies"].read_bytes()
    metas = [json.loads(p["metadata"].read_text()) for p in paths]
    assert [m["config"].pop("d_max") for m in metas] == list(d_maxes)
    assert metas[0] == metas[1]
    assert any("backlogged" in a and "d_max" in a for a in metas[0]["assumptions"])


def test_floor_is_the_closed_form_fraction_of_the_idle_su_pu_throughput(tmp_path):
    # The PU sends in every slot, so with the SU idle its throughput is its
    # decoding probability without interference; every row's floor is that
    # times constraint_fraction, to the last bit.
    path = write(tmp_path, GOOD)
    cfg = load_config(path)
    rates = cli._resolve_rates(cfg)
    rows = csv.DictReader(run_experiment(path, tmp_path / "out")["results"].open())
    floors = {(r["scheme"], float(r["sweep_value"])): r["value"] for r in rows
              if r["metric"] == "constraint_min"}
    assert len(floors) == 2 * 3
    for (_, value), floor in floors.items():
        system = SystemConfig(cli._point_snr(cfg, value), rates, PuConfig(cfg.r_max))
        assert floor == repr(cfg.constraint_fraction * system.success_probs()[0])


def test_genie_rows_are_the_closed_form(tmp_path):
    # The genie earns the clean-SU regions 1, 2, 5 and 7 in every slot it
    # sends in, and sends in the largest fraction the floor allows.  The
    # sweep crosses a silent cross link (rho_0 = rho_1), a slack floor and a
    # binding one.
    text = (GOOD.replace("sweep = gamma_ps_over_gamma_s", "sweep = gamma_sp_over_gamma_p")
            .replace("sweep_values = 0.2, 1", "sweep_values = 0, 0.01, 1")
            .replace("schemes = chain_decoding, no_fic_bic", "schemes = no_fic_bic")
            .replace("n_slots = 3000", "n_slots = 300"))
    path = write(tmp_path, text)
    cfg = load_config(path)
    rates = cli._resolve_rates(cfg)
    rows = {(r["metric"], float(r["sweep_value"])): r["value"]
            for r in csv.DictReader(run_experiment(path, tmp_path / "out")["results"].open())
            if r["scheme"] == "genie"}
    phis = []
    for value in cfg.sweep_values:
        snr = cli._point_snr(cfg, value)
        rho0, rho1 = SystemConfig(snr, rates, PuConfig(cfg.r_max)).success_probs()
        r = exact_region_probabilities(snr.mean_gamma_s, snr.mean_gamma_ps, rates)
        floor = cfg.constraint_fraction * rho0
        phi = min(1.0, (rho0 - floor) / (rho0 - rho1)) if rho0 > rho1 else 1.0
        phis.append(phi)
        su = (r.delta_sp + r.delta_s + r.ups_s + r.ups_sp) * phi
        assert rows["analytic_su_throughput", value] == repr(float(su))
        assert rows["constraint_min", value] == repr(float(floor))
    assert len(rows) == 2 * 3 and phis[0] == phis[1] == 1.0 and phis[2] < 1.0


def test_far_rates_with_a_vanishing_mean_run(tmp_path):
    # ab * u overflows in the region-1 term of the closed form, where
    # exp(-ab u) is 0: no SU or PU packet decodes, and the run completes.
    text = ("mean_gamma_s = 1e-300\nmean_gamma_p = 10\nmean_gamma_ps = 1\n"
            "rate_s = 500\nrate_p = 500\nn_slots = 500\n")
    out = tmp_path / "out"
    assert main([str(write(tmp_path, text)), "-o", str(out)]) == 0
    rows = {(r["scheme"], r["metric"]): float(r["value"])
            for r in csv.DictReader((out / "results.csv").open())}
    assert rows[("genie", "analytic_su_throughput")] == 0.0
    assert rows[("chain_decoding", "mc_pu_throughput")] == 0.0


def test_main_exit_codes(tmp_path, capsys):
    cfg = write(tmp_path, GOOD)
    assert main([str(cfg), "-o", str(tmp_path / "cli"), "--slots", "1200"]) == 0
    bad = write(tmp_path, "nonsense\n", name="bad.cfg")
    assert main([str(bad), "-o", str(tmp_path / "cli2")]) == 2
    err = capsys.readouterr().err
    assert "bad.cfg" in err


def test_config_path_to_a_directory_is_an_error(tmp_path, capsys):
    assert main([str(tmp_path), "-o", str(tmp_path / "out")]) == 2
    assert "Is a directory" in capsys.readouterr().err


def test_config_that_is_not_utf8_names_the_line(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_bytes(b"mean_gamma_s = 5\nmean_gamma_p = 10\n# caf\xe9\n")
    assert main([str(cfg), "-o", str(tmp_path / "out")]) == 2
    assert "exp.cfg:3: not UTF-8 text" in capsys.readouterr().err


def test_output_dir_that_is_a_file_is_an_error(tmp_path, capsys):
    cfg, taken = write(tmp_path, GOOD), write(tmp_path, "", name="taken")
    assert main([str(cfg), "-o", str(taken)]) == 2
    assert "File exists" in capsys.readouterr().err


def test_output_dir_under_a_file_is_an_error(tmp_path, capsys):
    cfg, taken = write(tmp_path, GOOD), write(tmp_path, "", name="taken")
    assert main([str(cfg), "-o", str(taken / "sub")]) == 2
    assert "Not a directory" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("sweep_values", "0.2, 1, 1.0"),
    ("schemes", "chain_decoding, no_fic_bic, chain_decoding"),
])
def test_repeated_sweep_points_or_schemes_are_rejected(tmp_path, capsys, key, value):
    # Each would write rows sharing a (scheme, sweep_value, metric) key;
    # 1 and 1.0 are one sweep point.
    text = GOOD + f"{key} = {value}\n"
    assert main([str(write(tmp_path, text)), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"exp.cfg:{len(text.splitlines())}: {key} must be free of repeats" in err
    assert not (tmp_path / "out").exists()


def test_config_error_loads_no_lp_solver(tmp_path):
    # scipy.optimize is imported at the first solve, so a run that stops at
    # validation never pays for it
    bad = write(tmp_path, "mean_gamma_s = 5\nmean_gamma_p = 10\nn_slots = 0\n")
    code = ("import sys; from cogarq.cli import main; "
            f"code = main([{str(bad)!r}, '-o', {str(tmp_path / 'out')!r}]); "
            "print(code, 'scipy.optimize' in sys.modules)")
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.stdout.split() == ["2", "False"], done.stderr


ONE_POINT = """
mean_gamma_s = 5
mean_gamma_p = 10
mean_gamma_sp = 2
sweep = gamma_ps_over_gamma_s
sweep_values = 1
rate_s = optimize
rate_p = optimize
r_max = 5
d_max = 5
constraint_fraction = 0.8
schemes = chain_decoding
seed = 3
n_slots = {n_slots}
"""


def _peak_rss_mb(tmp_path, n_slots: int) -> float:
    """Peak resident memory of one CLI run in a child process, in MB."""
    cfg = write(tmp_path, ONE_POINT.format(n_slots=n_slots), name=f"n{n_slots}.cfg")
    src = str(Path(cli.__file__).resolve().parents[1])
    with (tmp_path / f"n{n_slots}.err").open("w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "cogarq.cli", str(cfg), "-o", str(tmp_path / f"n{n_slots}")],
            env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0, (tmp_path / f"n{n_slots}.err").read_text()
    return usage.ru_maxrss / 1024  # KiB on Linux


def test_peak_memory_does_not_grow_with_the_horizon(tmp_path):
    # The inputs are encoded a slice at a time and the decoding graph
    # forgets the decoded slots it can no longer be asked about, so ten
    # times the slots take no more memory.  Holding whole-run streams and
    # every decoded slot, the 500k-slot run peaked about 19 MB higher.
    short, long = _peak_rss_mb(tmp_path, 50_000), _peak_rss_mb(tmp_path, 500_000)
    assert long - short < 4.0, (short, long)


@pytest.mark.parametrize(
    "key,value",
    [
        ("n_slots", "0"),
        ("n_slots", "-5"),
        ("r_max", "0"),
        ("d_max", "1"),
        ("mean_gamma_ps", "nan"),
        ("rate_s", "-1"),
        # breaks d_max >= r_max against the default d_max = 5
        ("r_max", "6"),
        # past the rate search's range, with rate_s = optimize
        ("mean_gamma_s", "1e200"),
        # the swept mean gamma_ps = 1e308 * mean_gamma_s overflows
        ("sweep_values", "1e308"),
        # with rate_p = optimize (about 2.5), (2^rate_s - 1)(2^rate_p - 1) overflows
        ("rate_s", "1023"),
        ("q_max", "0"),
        # retired keys, now rejected as unknown whatever their value
        ("region_samples", "0"),
        ("arrivals", "poisson"),
        ("pu_policy", "random"),
        ("constraint_component", "latency"),
        ("workers", "0"),
    ],
)
def test_main_rejects_out_of_range_values(tmp_path, capsys, key, value):
    text = (GOOD.replace("sweep_values = 0.2, 1", "sweep_values = 1").replace("d_max = 3\n", "")
            + f"{key} = {value}\n")
    cfg = write(tmp_path, text)
    assert main([str(cfg), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert key in err
    assert f"exp.cfg:{len(text.splitlines())}:" in err


@pytest.mark.parametrize("key,value", [
    ("arrivals", "saturate"),
    ("pu_policy", "always"),
    ("constraint_component", "throughput"),
    ("region_samples", "1000000"),
    ("workers", "1"),
])
def test_retired_keys_are_unknown(tmp_path, capsys, key, value):
    # These keys accepted one value each, or changed no output (workers only
    # scheduled the sweep points), and are gone: even the value once
    # accepted is now an unknown key on its line.
    text = GOOD + f"{key} = {value}\n"
    assert main([str(write(tmp_path, text)), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"exp.cfg:{len(text.splitlines())}: unknown key {key!r}" in err


def test_overflowing_rate_pair_names_both_rate_lines(tmp_path, capsys):
    text = "mean_gamma_s = 5\nmean_gamma_p = 10\nmean_gamma_ps = 5\nrate_s = 600\nrate_p = 600\n"
    assert main([str(write(tmp_path, text)), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "exp.cfg:4: rate_s must be below 1023 - rate_p" in err
    assert "(rate_p is set on line 5)" in err


def test_overflowing_swept_mean_names_the_sweep_values_line(tmp_path, capsys):
    text = ("mean_gamma_s = 1e300\nmean_gamma_p = 10\nrate_s = 2\n"
            "sweep = gamma_ps_over_gamma_s\nsweep_values = 1e10\n")
    assert main([str(write(tmp_path, text)), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "exp.cfg:5: sweep_values must be finite when multiplied by mean_gamma_s" in err


def test_each_sweep_point_computes_its_own_regions(tmp_path, monkeypatch):
    text = (GOOD.replace("sweep = gamma_ps_over_gamma_s", "sweep = gamma_sp_over_gamma_p")
            .replace("sweep_values = 0.2, 1", "sweep_values = 0.05, 0.2, 1")
            .replace("schemes = chain_decoding, no_fic_bic", "schemes = no_fic_bic"))
    path = write(tmp_path, text)
    regions = cli.exact_region_probabilities
    calls = []
    monkeypatch.setattr(cli, "exact_region_probabilities",
                        lambda *a: calls.append(a) or regions(*a))
    paths = run_experiment(path, tmp_path / "out")
    # one closed-form evaluation per point, at the same means along a
    # cross-link sweep
    assert len(calls) == 3 and len(set(calls)) == 1
    # every point holds the rows it gets when solved alone
    cfg = load_config(path)
    rates = cli._resolve_rates(cfg)
    want = [{k: str(v) for k, v in row.items()}
            for i in range(3) for row in cli._sweep_point(cfg, rates, i, False)[0]]
    assert list(csv.DictReader(paths["results"].open())) == want


def test_metadata_reports_solver_diagnostics(tmp_path):
    paths = run_experiment(write(tmp_path, GOOD), tmp_path / "out")
    meta = json.loads(paths["metadata"].read_text())
    solves = meta["solves"]
    # the genie's row is a closed form, so it has no solve
    assert [(r["sweep_value"], r["scheme"]) for r in solves] == [
        (v, s) for v in (0.2, 1.0) for s in ("chain_decoding", "no_fic_bic")]
    pols = {(p["sweep_value"], p["scheme"]): p for p in map(json.loads, paths["policies"].open())}
    for r in solves:
        assert r["status"] == 0
        assert isinstance(r["nit"], int) and r["nit"] >= 0
        assert r["floor_slack"] >= -1e-9
        pol = pols[r["sweep_value"], r["scheme"]]
        assert 1 <= r["reachable_states"] <= len(pol["states"])
        if r["floor_slack"] > 1e-9:
            assert pol["multiplier"] == 0.0
        mixed = [st for st in pol["states"] if 0.0 < st["mu"] < 1.0]
        assert len(mixed) <= 1
        if r["randomized_state"] is None:
            assert not mixed and pol["mix_weight"] is None
        else:
            assert {k: mixed[0][k] for k in ("cd", "t")} == r["randomized_state"]
            assert pol["mix_weight"] == mixed[0]["mu"]
    # the floor binds at the larger cross link, so some solve randomizes
    assert any(r["randomized_state"] for r in solves)
    assert any("closed form" in a for a in meta["assumptions"])
    rows = list(csv.DictReader(paths["results"].open()))
    assert {r["metric"] for r in rows} == {
        "analytic_su_throughput", "analytic_pu_throughput", "constraint_min",
        "mc_su_throughput", "mc_pu_throughput", "drop_rate"}


# The cross-link sweep of 24 points at a 2,000-slot horizon that the
# benchmark runs beside the README example.
ANALYTIC_RATIOS = ("0.01, 0.015, 0.02, 0.03, 0.04, 0.045, 0.06, 0.08, 0.1, 0.15, 0.2, 0.3, "
                   "0.4, 0.5, 0.6, 0.8, 1, 1.25, 1.5, 2, 2.5, 3, 4, 5")
ANALYTIC_SWEEP = f"""
mean_gamma_s = 5
mean_gamma_p = 10
mean_gamma_ps = 5
sweep = gamma_sp_over_gamma_p
sweep_values = {ANALYTIC_RATIOS}
rate_s = optimize
rate_p = optimize
r_max = 5
d_max = 5
constraint_fraction = 0.8
schemes = chain_decoding, fic_bic, fic_only, no_fic_bic
seed = 1
n_slots = 2000
"""


@pytest.mark.parametrize("sweep", ["readme", "analytic"])
def test_idle_evaluation_equals_the_closed_form_pu_throughput(tmp_path, sweep):
    # The PU floor is a fraction of the closed form success_probs()[0],
    # the PU's throughput with the SU idle.  The idle policy's evaluation on
    # every kernel both sweeps solve is an oracle for that closed form: it
    # agrees to 2 ulp, the rounding of the stationary sum.
    if sweep == "readme":
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        text = re.search(r"```\n(mean_gamma_s = .*?)```", readme, re.S).group(1)
    else:
        text = ANALYTIC_SWEEP
    cfg = load_config(write(tmp_path, text))
    rates = cli._resolve_rates(cfg)
    pu_cfg = PuConfig(cfg.r_max)
    models = [GenieModel(pu_cfg), *(scheme_model(SchemeKind(s), pu_cfg) for s in cfg.schemes)]
    kernels = 0
    for value in cfg.sweep_values:
        snr = cli._point_snr(cfg, value)
        closed = SystemConfig(snr, rates, pu_cfg).success_probs()
        probs = exact_region_probabilities(snr.mean_gamma_s, snr.mean_gamma_ps, rates)
        for model in models:
            space = enumerate_space(model, probs, closed)
            idle = evaluate_policy(space, build_kernel(space), np.zeros(space.n))
            assert abs(idle.pu_throughput - closed[0]) <= 2 * math.ulp(closed[0]), (value, model)
            kernels += 1
    assert kernels == 5 * len(cfg.sweep_values) == (30 if sweep == "readme" else 120)



def test_importing_the_cli_loads_no_scipy_graph_code(tmp_path):
    # scipy.sparse.csgraph costs about 0.36 s to import.  The evaluation
    # solves the law on the states the start reaches, so neither the import
    # nor a full run, solves and evaluations included, loads it.  The sweep
    # points run in this process, so no run loads multiprocessing either.
    cfg = write(tmp_path, GOOD.replace("n_slots = 3000", "n_slots = 300"))
    code = ("import sys, cogarq.cli; imported = 'scipy.sparse.csgraph' in sys.modules; "
            f"code = cogarq.cli.main([{str(cfg)!r}, '-o', {str(tmp_path / 'out')!r}]); "
            "print(imported, code, 'scipy.optimize' in sys.modules, "
            "'scipy.sparse.csgraph' in sys.modules, 'multiprocessing' in sys.modules)")
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.stdout.split()[-5:] == ["False", "0", "True", "False", "False"], done.stderr


_FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                    st.sampled_from([-1.0, 0.0, 1e150, 1.1e150, 1e300]))
_BAD = st.sampled_from(["", "five", "1,2", "0x10", "1.5.2", "--1", "None"])


def _mostly(good, odd):
    """Value texts: `good` three times in four, else `odd` or malformed."""
    return st.one_of(good, good, good, st.one_of(odd, _BAD))


def _value(key: str):
    """In-range, out-of-range and malformed value texts for a schema key."""
    if key in cli._INT_KEYS:
        return _mostly(st.integers(1, 6).map(str),
                       st.one_of(st.integers(-2, 0), st.floats(-2.0, 9.0)).map(str))
    if key in cli._FLOAT_KEYS:
        top = 1.0 if key == "constraint_fraction" else 50.0
        return _mostly(st.floats(0.0, top).map(repr), _FLOATS.map(repr))
    if key in ("rate_s", "rate_p"):
        return _mostly(st.one_of(st.just("optimize"), st.floats(0.1, 5.0).map(repr)),
                       st.one_of(st.floats(-1.0, 1100.0), _FLOATS).map(repr))
    if key == "sweep_values":
        join = lambda v: ", ".join(map(repr, v))
        return _mostly(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=3).map(join),
                       st.lists(_FLOATS, max_size=3).map(join))
    if key == "schemes":
        return st.lists(st.sampled_from([*cli._SCHEMES, "warp_drive"]), max_size=3).map(", ".join)
    good = {"sweep": cli.SWEEP_PARAMS}[key]
    return _mostly(st.sampled_from(good), st.sampled_from(["poisson", "power", "none "]))


_SCHEMA_KEYS = sorted(cli._INT_KEYS | cli._FLOAT_KEYS | cli._STR_KEYS
                      | {"rate_s", "rate_p", "sweep_values", "schemes"})
_LINES = st.lists(
    st.sampled_from(_SCHEMA_KEYS).flatmap(lambda k: _value(k).map(lambda v: (k, v))),
    max_size=10)


@settings(max_examples=150, deadline=None)
@given(lines=_LINES, required=st.lists(st.booleans(), min_size=2, max_size=2),
       unknown=st.sampled_from([None, None, None, "bogus", "R_MAX"]))
def test_any_config_file_loads_or_names_its_bad_key(lines, required, unknown):
    # Random key = value files over the schema's keys, with malformed and
    # out-of-range numbers, unknown keys, missing required keys and broken
    # rules across keys.  Each either loads, or makes `main` exit 2 with a
    # ConfigError naming a key the file sets or a required key it lacks,
    # never with another exception.  `main` runs only on files that fail,
    # so no sweep is started.
    head = [(k, "5") for k, keep in zip(("mean_gamma_s", "mean_gamma_p"), required) if keep]
    lines = head + lines + ([(unknown, "1")] if unknown else [])
    text = "".join(f"{k} = {v}\n" for k, v in lines)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "exp.cfg"
        path.write_text(text)
        try:
            load_config(path)
        except ConfigError as e:
            missing = {"mean_gamma_s", "mean_gamma_p"} - {k for k, _ in lines}
            assert e.key in {k for k, _ in lines} | missing, (text, str(e))
            assert e.key in str(e), (text, str(e))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert main([str(path), "-o", str(Path(tmp) / "out")]) == 2
            assert e.key in err.getvalue()
