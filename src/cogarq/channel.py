"""Block-fading channel layer.

Both links fade independently slot by slot (Rayleigh amplitudes, so the
instantaneous SNRs are exponential).  Given the SNRs of each slot and the
fixed transmission rates, this module classifies the decoding outcome at the
secondary receiver, which jointly decodes or buffers the two superposed
packets, into one of seven regions, and states once which packets each
region makes decodable.  It also gives the exact PU decoding probability
and the exact region probabilities, and tunes a single-user rate to its
throughput-optimal value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RatePair",
    "AvgSnrConfig",
    "RegionProbabilities",
    "SU_CLEAN",
    "SU_UNDER_PU",
    "PU_ALONE",
    "PU_UNDER_SU",
    "SU_NEEDS_PU",
    "classify_su_outcomes",
    "pu_success_probability",
    "exact_region_probabilities",
    "optimize_rate",
]

def _check_nonneg(name: str, value: float) -> float:
    v = float(value)
    if not math.isfinite(v) or v < 0.0:
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return v


@dataclass(frozen=True)
class RatePair:
    """Fixed transmission rates in bits/s/Hz for the two transmitters."""

    r_s: float
    r_p: float

    def __post_init__(self):
        for name in ("r_s", "r_p"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be finite and > 0, got {v!r}")


@dataclass(frozen=True)
class AvgSnrConfig:
    """Mean linear SNRs of the four Rayleigh-fading links."""

    mean_gamma_s: float
    mean_gamma_ps: float
    mean_gamma_p: float
    mean_gamma_sp: float

    def __post_init__(self):
        for name in ("mean_gamma_s", "mean_gamma_ps", "mean_gamma_p", "mean_gamma_sp"):
            _check_nonneg(name, getattr(self, name))


@dataclass(frozen=True)
class RegionProbabilities:
    """Probabilities of the seven decoding-outcome regions at the SU receiver.

    Field order follows the region indices: region 1 is `delta_sp` (joint
    success), 2 is `delta_s`, 3 is `delta_p`, 4 is `ups_empty`, 5 is `ups_s`
    (PU packet unlocks the SU packet), 6 is `ups_p`, 7 is `ups_sp` (mutual).
    """

    delta_sp: float
    delta_s: float
    delta_p: float
    ups_empty: float
    ups_s: float
    ups_p: float
    ups_sp: float

    def __post_init__(self):
        for p in self.as_array():
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"region probability out of [0,1]: {p!r}")

    def as_array(self) -> np.ndarray:
        """Probabilities indexed by region, `arr[j-1]` for region j."""
        return np.array(
            [self.delta_sp, self.delta_s, self.delta_p, self.ups_empty,
             self.ups_s, self.ups_p, self.ups_sp]
        )


# Which of the slot's own packets each outcome region lets the SU receiver
# decode.  Every scheme's receiver, compact model and invariant check reads
# these four sets.
SU_CLEAN = frozenset({1, 2, 5, 7})   # SU packet, no PU interference (PU packet known)
SU_UNDER_PU = frozenset({1, 2})      # SU packet, under an unknown PU packet
PU_ALONE = frozenset({1, 3, 6, 7})   # PU packet, no SU transmission
PU_UNDER_SU = frozenset({1, 3})      # PU packet, under an SU packet
SU_NEEDS_PU = SU_CLEAN - SU_UNDER_PU  # SU packet, only once the PU packet is cancelled

_RATE_REL_TOL = 1e-4  # the relative bracket width at which `optimize_rate` stops


def classify_su_outcomes(gamma_s: np.ndarray, gamma_ps: np.ndarray, r: RatePair) -> np.ndarray:
    """Outcome region index in 1..7 at the SU receiver, one uint8 per slot.

    The seven regions partition the (gamma_s, gamma_ps) plane for fixed
    rates.  1: both packets jointly decodable.  2: SU packet decodable
    treating the PU packet as noise, PU packet never decodable.  3: mirror
    case for the PU packet.  4: neither decodable even after removing the
    other.  5: SU packet decodable only once the PU packet is cancelled.
    6: mirror case.  7: each decodable once the other is cancelled.
    Boundary ties follow the stated inequality strictness.
    """
    gs = np.asarray(gamma_s, dtype=float)
    gps = np.asarray(gamma_ps, dtype=float)
    c_s = np.log2(1.0 + gs)
    c_ps = np.log2(1.0 + gps)
    out = np.full(gs.shape, 4, dtype=np.uint8)
    su_ok = r.r_s < c_s
    pu_ok = r.r_p < c_ps
    both = su_ok & pu_ok
    joint = r.r_s + r.r_p < np.log2(1.0 + gs + gps)
    out[both & joint] = 1
    out[both & ~joint] = 7
    su_only = su_ok & ~pu_ok
    clean = r.r_s < np.log2(1.0 + gs / (1.0 + gps))
    out[su_only & clean] = 2
    out[su_only & ~clean] = 5
    pu_only = ~su_ok & pu_ok
    clean_p = r.r_p < np.log2(1.0 + gps / (1.0 + gs))
    out[pu_only & clean_p] = 3
    out[pu_only & ~clean_p] = 6
    return out


def pu_success_probability(cfg: AvgSnrConfig, r: RatePair, a_s: int) -> float:
    """Exact PU decoding probability under Rayleigh fading.

    With independent exponential gamma_p and gamma_sp, the tail of
    gamma_p / (1 + a_s * gamma_sp) above the rate threshold has a closed
    form via the exponential moment generating function.
    """
    if a_s not in (0, 1):
        raise ValueError(f"a_s must be 0 or 1, got {a_s!r}")
    theta = 2.0 ** r.r_p - 1.0
    mp = cfg.mean_gamma_p
    if mp == 0.0:
        return 0.0
    base = math.exp(-theta / mp)
    if a_s == 0:
        return base
    return base / (1.0 + theta * cfg.mean_gamma_sp / mp)


def _phi(z: float) -> float:
    """(1 - exp(-z)) / z for z >= 0, with its limit 1 at z = 0."""
    return 1.0 if z == 0.0 else -math.expm1(-z) / z


def _wedge(ab: float, u: float, v: float) -> float:
    """u (exp(-ab v) - exp(-ab u)) / (u - v), as ab u exp(-ab min(u, v))
    phi(ab |u - v|), which has no positive exponent and needs no branch at
    equal means (phi(0) = 1).

    Where ab u overflows, that product is inf * 0.  There exp(-ab u) is 0,
    so the value is u exp(-ab v) (1 - exp(-ab (u - v))) / (u - v) for
    v < u, finite, and 0 otherwise.
    """
    x = ab * u
    if math.isinf(x):
        return u / (u - v) * math.exp(-ab * v) * -math.expm1(-ab * (u - v)) if v < u else 0.0
    return x * math.exp(-ab * min(u, v)) * _phi(ab * abs(u - v))


def exact_region_probabilities(mean_s: float, mean_ps: float, r: RatePair) -> RegionProbabilities:
    """Closed-form region probabilities under independent exponential gains.

    With a = 2^r_s - 1 and b = 2^r_p - 1, every region boundary is a
    straight line in the (gamma_s, gamma_ps) plane: gamma_s = a, gamma_ps =
    b, gamma_s = a (1 + gamma_ps), gamma_ps = b (1 + gamma_s) and gamma_s +
    gamma_ps = a + b + ab.  Regions 2, 3, 4 and 1 are one-dimensional
    exponential integrals, and 5, 6 and 7 their complements within the
    quadrants gamma_s > a or gamma_ps > b.  Exponents are combined before
    they are taken and small differences go through `expm1`, so every mean
    ratio gives finite values in [0, 1]; a zero mean takes its limit.
    """
    a = 2.0 ** r.r_s - 1.0
    b = 2.0 ** r.r_p - 1.0
    ab = a * b
    if mean_ps == 0.0:
        # gamma_ps identically zero: only regions 2 and 4 have mass
        d_s = math.exp(-a / mean_s) if mean_s > 0.0 else 0.0
        return RegionProbabilities(0.0, d_s, 0.0, 1.0 - d_s, 0.0, 0.0, 0.0)
    if mean_s == 0.0:
        d_p = math.exp(-b / mean_ps)
        return RegionProbabilities(0.0, 0.0, d_p, 1.0 - d_p, 0.0, 0.0, 0.0)
    u, v = 1.0 / mean_s, 1.0 / mean_ps
    e_a, e_b = math.exp(-a * u), math.exp(-b * v)  # P(gamma_s > a), P(gamma_ps > b)
    # region 2: gamma_ps <= b, gamma_s > a (1 + gamma_ps); region 3 mirrors it
    d_s = e_a * -math.expm1(-b * (v + a * u)) / (1.0 + a * mean_ps * u)
    d_p = e_b * -math.expm1(-a * (u + b * v)) / (1.0 + b * mean_s * v)
    # region 1: a < gamma_s <= a + ab with gamma_ps > a + b + ab - gamma_s
    # (`_wedge`), plus gamma_s > a + ab with gamma_ps > b
    d_sp = e_a * e_b * (_wedge(ab, u, v) + math.exp(-ab * u))
    u_0 = math.expm1(-a * u) * math.expm1(-b * v)
    # the complements; rounding may leave them a few ulps below zero
    u_s = max(-e_a * math.expm1(-b * v) - d_s, 0.0)
    u_p = max(-e_b * math.expm1(-a * u) - d_p, 0.0)
    u_sp = max(e_a * e_b - d_sp, 0.0)
    return RegionProbabilities(d_sp, d_s, d_p, u_0, u_s, u_p, u_sp)


def _rate_objective(rate: float, mean_snr: float) -> float:
    return rate * math.exp(-(2.0 ** rate - 1.0) / mean_snr)


def optimize_rate(mean_snr: float) -> float:
    """Rate maximizing single-user throughput r * P(r < C(gamma)).

    The success probability under exponential fading is
    exp(-(2^r - 1) / mean_snr), and the objective is unimodal in r.  The
    maximizer is located by geometric grid search, shrinking the bracket
    until its relative width is below `_RATE_REL_TOL`.
    """
    if not math.isfinite(mean_snr) or mean_snr <= 0.0:
        raise ValueError(f"mean_snr must be > 0, got {mean_snr!r}")
    # Expand an upper bound past the peak, then shrink a geometric bracket.
    hi = 1.0
    while _rate_objective(2.0 * hi, mean_snr) > _rate_objective(hi, mean_snr):
        hi *= 2.0
        if hi > 1e6:  # pragma: no cover
            raise RuntimeError("rate search failed to bracket a maximum")
    hi *= 2.0
    lo = 1e-9
    while hi / lo - 1.0 > _RATE_REL_TOL:
        grid = np.geomspace(lo, hi, 65)
        vals = [_rate_objective(g, mean_snr) for g in grid]
        k = int(np.argmax(vals))
        lo = grid[max(k - 1, 0)]
        hi = grid[min(k + 1, len(grid) - 1)]
    return float(math.sqrt(lo * hi))
