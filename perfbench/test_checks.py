"""Each output check must pass a real CLI output and reject a doctored copy.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py

The real output comes from a small cross-link sweep with one point below
the activation ratio r* ~ 0.053 and one above it, run once per session.
"""

import csv
import json
import shutil
import sys
from pathlib import Path

import pytest

import checks
from workloads import parse_config

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

CONFIG = """\
mean_gamma_s = 5
mean_gamma_p = 10
mean_gamma_ps = 5
sweep = gamma_sp_over_gamma_p
sweep_values = 0.02, 0.2
r_max = 5
d_max = 5
q_max = 1
constraint_fraction = 0.8
schemes = chain_decoding, fic_bic, fic_only, no_fic_bic
seed = 7
n_slots = 2000
"""
BELOW, ABOVE = "0.02", "0.2"
EXPECT = checks.Expect.from_config(parse_config(CONFIG), check_invariants=True)


@pytest.fixture(scope="session")
def real(tmp_path_factory):
    from cogarq import cli

    base = tmp_path_factory.mktemp("real")
    (base / "exp.cfg").write_text(CONFIG)
    out = base / "out"
    assert cli.main([str(base / "exp.cfg"), "-o", str(out), "--check-invariants"]) == 0
    return out


@pytest.fixture
def copy(real, tmp_path):
    dst = tmp_path / "out"
    shutil.copytree(real, dst)
    return dst


def edit_rows(out: Path, fn):
    path = out / "results.csv"
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        fields, rows = reader.fieldnames, list(reader)
    rows = fn(rows)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def row(rows, scheme, value, metric):
    (r,) = [r for r in rows if (r["scheme"], r["sweep_value"], r["metric"]) == (scheme, value, metric)]
    return r


def set_value(scheme, value, metric, fn):
    def edit(rows):
        r = row(rows, scheme, value, metric)
        r["value"] = repr(fn(float(r["value"])))
        return rows
    return edit


def swap_schemes(rows):
    a = row(rows, "chain_decoding", ABOVE, "analytic_su_throughput")
    b = row(rows, "no_fic_bic", ABOVE, "analytic_su_throughput")
    a["value"], b["value"] = b["value"], a["value"]
    return rows


def pu_below_floor(rows):
    floor = float(row(rows, "fic_bic", ABOVE, "constraint_min")["value"])
    row(rows, "fic_bic", ABOVE, "analytic_pu_throughput")["value"] = repr(floor - 0.01)
    return rows


def edit_json(name, fn):
    def doctor(out: Path):
        path = out / name
        if name.endswith(".jsonl"):
            recs = [json.loads(line) for line in path.read_text().splitlines()]
            fn(recs)
            path.write_text("".join(json.dumps(r) + "\n" for r in recs))
        else:
            data = json.loads(path.read_text())
            fn(data)
            path.write_text(json.dumps(data))
    return doctor


def record(recs, value, scheme):
    (r,) = [r for r in recs if r["sweep_value"] == float(value) and r["scheme"] == scheme]
    return r


DOCTORED = {
    "floor moved": ("floor", lambda o: edit_rows(
        o, set_value("fic_only", BELOW, "constraint_min", lambda v: v + 1e-6))),
    "rate off its optimum": ("rates", edit_json(
        "run-metadata.json", lambda m: m["rates"].update(r_p=m["rates"]["r_p"] * 1.01))),
    "two schemes swapped": ("order", lambda o: edit_rows(o, swap_schemes)),
    "genie above its ceiling": ("genie", lambda o: edit_rows(
        o, set_value("genie", ABOVE, "analytic_su_throughput", lambda v: 0.6))),
    "genie off the clean-link value below r*": ("genie", lambda o: edit_rows(
        o, set_value("genie", BELOW, "analytic_su_throughput", lambda v: v - 0.01))),
    "PU below its floor": ("pu_floor", lambda o: edit_rows(o, pu_below_floor)),
    "Monte Carlo far from analytic": ("mc", lambda o: edit_rows(
        o, set_value("fic_only", ABOVE, "mc_su_throughput", lambda v: v + 0.2))),
    "mu outside [0, 1]": ("mu", edit_json(
        "policies.jsonl", lambda rs: record(rs, ABOVE, "fic_bic")["states"][0].update(mu=1.5))),
    "nonzero multiplier below r*": ("activation", edit_json(
        "policies.jsonl", lambda rs: record(rs, BELOW, "no_fic_bic").update(multiplier=0.5))),
    "zero multiplier above r*": ("activation", edit_json(
        "policies.jsonl", lambda rs: record(rs, ABOVE, "chain_decoding").update(multiplier=0.0))),
    "row dropped": ("rows", lambda o: edit_rows(o, lambda rows: rows[:5] + rows[6:])),
    "invariant violation": ("invariants", edit_json(
        "run-metadata.json", lambda m: m.update(invariant_violations=["x"]))),
}


def test_real_output_passes(real):
    assert checks.check_output(EXPECT, real, 0) == []


def test_rates_match_closed_form_optimum():
    # d/dr [r exp(-(2^r - 1)/g)] = 0  <=>  1 = r ln2 2^r / g.  A search on
    # function values resolves a flat maximum to about sqrt(machine epsilon).
    r = checks.best_rate(10.0)
    assert abs(r * 0.6931471805599453 * 2.0 ** r / 10.0 - 1.0) < 1e-6


@pytest.mark.parametrize("name", DOCTORED)
def test_doctored_output_is_rejected(copy, name):
    check, doctor = DOCTORED[name]
    doctor(copy)
    fails = checks.check_output(EXPECT, copy, 0)
    assert check in {f.check for f in fails}, fails
    assert checks.failed_ops(EXPECT, fails) > 0


def test_nonzero_exit_is_rejected(real):
    fails = checks.check_output(EXPECT, real, 1)
    assert "exit" in {f.check for f in fails}
    assert checks.failed_ops(EXPECT, fails) == len(EXPECT.ops)


def test_one_changed_byte_fails_the_digest(real, copy):
    data = bytearray((copy / "results.csv").read_bytes())
    data[-3] ^= 0x01
    (copy / "results.csv").write_bytes(bytes(data))
    ref = checks.results_digest(real)
    assert checks.check_digest(checks.results_digest(real), ref, "ref") == []
    fails = checks.check_digest(checks.results_digest(copy), ref, "ref")
    assert [f.check for f in fails] == ["digest"]
    assert checks.failed_ops(EXPECT, fails) == len(EXPECT.ops)
