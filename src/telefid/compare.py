"""Polar cap vs von Mises-Fisher at matched operating points.

Two distributions are made comparable either by sharing the mean polar
angle or by sharing the classical fidelity; the interesting outputs are
the gaps dF = F(vmf) - F(cap) and dD = D(vmf) - D(cap) for a fixed
resource tensor.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable

from .core import PolarCap, VonMisesFisher
from .distributions import mean_polar_angle
from .fidelity import classical_fidelity, fidelity_stats

# kappa search bracket; targets mapping outside are range errors, not clamps
KAPPA_MIN = 1e-8
KAPPA_MAX = 1e3

_XTOL = 1e-13


def _bisect(f, lo: float, hi: float, xtol: float) -> float:
    """A root of f in [lo, hi] by bisection, to within xtol or to adjacent
    floats; ValueError unless f(lo) and f(hi) differ in sign (or one is 0)."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0 or fhi == 0.0:
        return lo if flo == 0.0 else hi
    if (flo < 0.0) == (fhi < 0.0):
        raise ValueError(f"f({lo!r}) and f({hi!r}) have the same sign")
    while True:
        mid = 0.5 * (lo + hi)
        if hi - lo <= xtol or not lo < mid < hi:
            return mid
        if (f(mid) < 0.0) == (flo < 0.0):
            lo = mid
        else:
            hi = mid


class MatchCriterion(enum.Enum):
    MEAN_POLAR_ANGLE = "mean-polar-angle"
    CLASSICAL_FIDELITY = "classical-fidelity"


@dataclass(frozen=True)
class MatchedPair:
    """A (theta0*, kappa*) pair agreeing on one matching functional."""

    theta0_star: float
    kappa_star: float
    criterion: MatchCriterion
    matched_value: float

    def cap(self) -> PolarCap:
        return PolarCap(self.theta0_star)

    def vmf(self) -> VonMisesFisher:
        return VonMisesFisher(self.kappa_star)


@dataclass(frozen=True)
class ComparisonRow:
    matched_value: float
    theta0_star: float
    kappa_star: float
    delta_f: float
    delta_d: float


def cap_theta0_for_classical_fidelity(target: float) -> float:
    """Invert F_cl(theta0) = target on the branch theta0 in (0, pi/2].

    F_cl = (4 + c + c^2)/6 gives the quadratic root
    c = (sqrt(24 target - 15) - 1)/2.  Targets need 2/3 <= target < 1.
    (F_cl is not monotone past pi/2; the sub-hemisphere branch is the one
    continuously connected to concentrated ensembles.)
    """
    if not 2.0 / 3.0 <= target < 1.0:
        raise ValueError(f"classical fidelity target {target!r} outside [2/3, 1)")
    c = 0.5 * (math.sqrt(24.0 * target - 15.0) - 1.0)
    return math.acos(min(1.0, max(0.0, c)))


def vmf_kappa_for_classical_fidelity(target: float) -> float:
    """Invert F_cl(kappa) = target; F_cl is strictly increasing in kappa."""
    top = classical_fidelity(VonMisesFisher(KAPPA_MAX))
    if not 2.0 / 3.0 <= target < top:
        raise ValueError(
            f"classical fidelity target {target!r} outside [2/3, {top:.6f}) "
            f"reachable with kappa <= {KAPPA_MAX:g}")
    if target == 2.0 / 3.0:
        return 0.0
    return _bisect(lambda k: classical_fidelity(VonMisesFisher(k)) - target,
                   KAPPA_MIN, KAPPA_MAX, _XTOL)


def match_by_mean_angle(target: float) -> MatchedPair:
    """Find theta0* and kappa* sharing the mean polar angle `target`.

    target = pi/2 returns the exact uniform endpoint (theta0 = pi,
    kappa = 0).  Both inversions use bracketed root finding; the mean
    angle is strictly monotone in each parameter.
    """
    if not 0.0 < target <= 0.5 * math.pi:
        raise ValueError(f"mean angle target {target!r} outside (0, pi/2]")
    if abs(target - 0.5 * math.pi) < 1e-14:
        return MatchedPair(math.pi, 0.0, MatchCriterion.MEAN_POLAR_ANGLE, 0.5 * math.pi)
    floor = mean_polar_angle(VonMisesFisher(KAPPA_MAX))
    if target < floor:
        raise ValueError(
            f"mean angle target {target!r} below {floor:.6f}, the smallest "
            f"reachable with kappa <= {KAPPA_MAX:g}")
    theta0 = _bisect(lambda t: mean_polar_angle(PolarCap(t)) - target,
                     1e-9, math.pi, _XTOL)
    kappa = _bisect(lambda k: mean_polar_angle(VonMisesFisher(k)) - target,
                    KAPPA_MIN, KAPPA_MAX, _XTOL)
    return MatchedPair(theta0, kappa, MatchCriterion.MEAN_POLAR_ANGLE, target)


def match_by_classical_fidelity(target: float) -> MatchedPair:
    """Find theta0* and kappa* sharing classical fidelity `target` in (2/3, 1)."""
    if not 2.0 / 3.0 < target < 1.0:
        raise ValueError(f"classical fidelity target {target!r} outside (2/3, 1)")
    theta0 = cap_theta0_for_classical_fidelity(target)
    kappa = vmf_kappa_for_classical_fidelity(target)
    return MatchedPair(theta0, kappa, MatchCriterion.CLASSICAL_FIDELITY, target)


_MATCHERS = {
    MatchCriterion.MEAN_POLAR_ANGLE: match_by_mean_angle,
    MatchCriterion.CLASSICAL_FIDELITY: match_by_classical_fidelity,
}


def delta_stats(state, pair: MatchedPair) -> tuple[float, float]:
    """(dF, dD) = fidelity stats under vMF(kappa*) minus under cap(theta0*)."""
    sv = fidelity_stats(state, pair.vmf())
    sc = fidelity_stats(state, pair.cap())
    return (sv.mean - sc.mean, sv.deviation - sc.deviation)


def sweep_comparison(state, criterion: MatchCriterion,
                     targets: Iterable[float]) -> list[ComparisonRow]:
    """delta_stats over a grid of matching targets, one row per target."""
    match = _MATCHERS[criterion]
    rows = []
    for target in targets:
        pair = match(target)
        df, dd = delta_stats(state, pair)
        rows.append(ComparisonRow(target, pair.theta0_star, pair.kappa_star, df, dd))
    return rows
