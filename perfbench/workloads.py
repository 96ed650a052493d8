"""The benchmark's workloads: the experiment configs it hands to the CLI.

Each workload is a config template plus CLI flags.  The master seed is the
only input that varies between runs; it is written into the config, so the
program sees nothing but the generated file.
"""

from __future__ import annotations

from dataclasses import dataclass

# The README example, verbatim apart from the seed line.
_README = """\
mean_gamma_s = 5          # linear average SNRs
mean_gamma_p = 10
mean_gamma_sp = 2
sweep = gamma_ps_over_gamma_s
sweep_values = 0.05, 0.2, 0.5, 1, 2, 5
rate_s = optimize         # throughput-optimal single-user rates
rate_p = optimize
r_max = 5                 # ARQ retransmission deadline
d_max = 5                 # delay deadline
q_max = 1
constraint_fraction = 0.8 # PU throughput floor, fraction of its idle-SU value
schemes = chain_decoding, fic_bic, fic_only, no_fic_bic
seed = {seed}
n_slots = 100000
"""

# 24 cross-link ratios, 6 below the activation ratio r* ~ 0.0529 (where each
# solve stops after the unconstrained pass) and 18 above it (full multiplier
# bisection and mixing).  No point lies within 10% of r*.
_ANALYTIC_RATIOS = (
    "0.01, 0.015, 0.02, 0.03, 0.04, 0.045, "
    "0.06, 0.08, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, "
    "1, 1.25, 1.5, 2, 2.5, 3, 4, 5"
)

_ANALYTIC = f"""\
mean_gamma_s = 5
mean_gamma_p = 10
mean_gamma_ps = 5
sweep = gamma_sp_over_gamma_p
sweep_values = {_ANALYTIC_RATIOS}
rate_s = optimize
rate_p = optimize
r_max = 5
d_max = 5
q_max = 1
constraint_fraction = 0.8
schemes = chain_decoding, fic_bic, fic_only, no_fic_bic
seed = {{seed}}
n_slots = 2000
"""

# gamma_ps / gamma_s = 1 is where the decoding graph grows largest.
_SOAK = """\
mean_gamma_s = 5
mean_gamma_p = 10
mean_gamma_sp = 2
sweep = gamma_ps_over_gamma_s
sweep_values = 1
rate_s = optimize
rate_p = optimize
r_max = 5
d_max = 5
q_max = 1
constraint_fraction = 0.8
schemes = chain_decoding
seed = {seed}
n_slots = 600000
"""


@dataclass(frozen=True)
class Workload:
    name: str
    template: str
    cli_flags: tuple[str, ...] = ()

    def config_text(self, seed: int) -> str:
        return self.template.format(seed=seed)


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("readme_sweep", _README),
        Workload("analytic_sweep", _ANALYTIC),
        Workload("invariant_soak", _SOAK, ("--check-invariants",)),
    )
}


def parse_config(text: str) -> dict:
    """Read the key = value lines back, apart from the CLI's own parser."""
    values = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, _, val = (x.strip() for x in line.partition("="))
            values[key] = val
    return values
