"""Input distributions over Bloch directions, with their densities,
cosine moments and samplers.

Everything downstream (average fidelity, deviations, thresholds, resource
costs) reduces to the first four moments of cos(theta) under the input
density.  Each distribution class computes those moments itself, in closed
form with numerically stable branches, next to its density, mean polar angle
(also closed form: nothing here integrates numerically) and sampler.  The
module functions call into the class.  Uniform is the kappa = 0 vMF.

Also hosts the qutrit input measure: the unit sphere S^5 written as
(sin(theta4) w, cos(theta4)) with w a uniform point on S^4 and theta4 of
density proportional to sin^4(theta4), optionally restricted to
theta4 <= theta4_max.  theta4 is drawn by inverting the sin^4 CDF with a
fixed number of Newton steps on F^(1/5), F the sin^4 antiderivative,
which is summed from its series where its closed form cancels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from scipy.special import i0e

if TYPE_CHECKING:
    from .core import BlochDirection

# Upward recursion m_k = coth(k) - k m_{k-1}/kappa ... loses up to 8 digits
# below kappa ~ 0.25 through cancellation, so a 12th-order series takes over
# there; both branches agree to < 1e-12 relative at the seam (checked against
# 50-digit arithmetic).
_SERIES_CROSSOVER = 0.25

# vMF <theta> = pi (I0(k) - e^-k) / (2 sinh k), by parts with int_0^pi e^{k cos}
# = pi I0(k) (A&S 9.6.16).  Below the cut I0 - e^-k cancels (i0e's few-ulp error
# alone costs 3e-15 at 0.25), so a Taylor series good to 2e-20 there takes over.
_VMF_ANGLE_SERIES_CUT = 1.0
_VMF_ANGLE_SERIES = tuple(
    (1 / (4 ** (n // 2) * math.factorial(n // 2) ** 2) if n % 2 == 0 else 0.0)
    - (-1) ** n / math.factorial(n) for n in range(20, 0, -1))


@dataclass(frozen=True)
class MomentTable:
    """<cos^k theta> for k = 0..4 under an input distribution."""

    values: tuple[float, float, float, float, float]

    def __getitem__(self, k: int) -> float:
        return self.values[k]


def _coth(x: float) -> float:
    # expm1(2x) overflows past x ~ 354; coth is 1.0 to double precision past ~19
    if x > 350.0:
        return 1.0
    return 1.0 + 2.0 / math.expm1(2.0 * x)


def _cap_one_minus_cos(theta0: float) -> float:
    # 1 - cos(theta0) without cancellation at small theta0
    s = math.sin(0.5 * theta0)
    return 2.0 * s * s


class InputDistribution:
    """Base for distributions of input directions (phi always uniform).

    Subclasses supply cos_moments(), spread_moments(), density(theta),
    mean_polar_angle(), cos_inverse_cdf(v) and label().
    """

    __slots__ = ()


@dataclass(frozen=True)
class PolarCap(InputDistribution):
    """Uniform density restricted to the cap theta <= theta0, theta0 in (0, pi].

    PolarCap(pi) is the uniform sphere.
    """

    theta0: float

    def __post_init__(self) -> None:
        if not 0.0 < self.theta0 <= math.pi:
            raise ValueError(f"theta0={self.theta0!r} outside (0, pi]")

    def cos_moments(self) -> MomentTable:
        # cos(theta) is uniform on [cos(theta0), 1]:
        # m_k = (1 - c^{k+1}) / ((k+1)(1-c))
        c = math.cos(self.theta0)
        d = _cap_one_minus_cos(self.theta0)
        out = [1.0]
        if c < 0.9:
            for k in range(1, 5):
                out.append((1.0 - c ** (k + 1)) / ((k + 1) * d))
        else:
            # 1 - c^{k+1} = -expm1((k+1) log1p(-d)), stable as theta0 -> 0
            l = math.log1p(-d)
            for k in range(1, 5):
                out.append(-math.expm1((k + 1) * l) / ((k + 1) * d))
        return MomentTable(tuple(out))

    def spread_moments(self) -> tuple[float, float]:
        c = math.cos(self.theta0)
        d = _cap_one_minus_cos(self.theta0)
        return (d * d * (4.0 * c * c + 7.0 * c + 4.0) / 45.0,
                d * d * (3.0 * c * c + 9.0 * c + 8.0) / 15.0)

    def density(self, theta: float) -> float:
        if theta > self.theta0:
            return 0.0
        return 1.0 / (2.0 * math.pi * _cap_one_minus_cos(self.theta0))

    def mean_polar_angle(self) -> float:
        t0 = self.theta0
        if t0 < 1e-2:
            # (sin t - t cos t)/(1 - cos t) loses digits near 0
            t2 = t0 * t0
            return t0 * (2 / 3 - t2 * (1 / 90 + t2 * (1 / 2520 + t2 * (
                1 / 75600 + t2 / 2395008))))
        return (math.sin(t0) - t0 * math.cos(t0)) / _cap_one_minus_cos(t0)

    def cos_inverse_cdf(self, v: np.ndarray) -> np.ndarray:
        u = 1.0 - v * _cap_one_minus_cos(self.theta0)
        np.clip(u, math.cos(self.theta0), 1.0, out=u)
        return u

    def label(self) -> str:
        return f"cap({self.theta0:g})"


@dataclass(frozen=True)
class VonMisesFisher(InputDistribution):
    """von Mises-Fisher density ~ exp(kappa cos theta) about the north pole.

    kappa >= 0; kappa = 0 is the uniform sphere.
    """

    kappa: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.kappa) and self.kappa >= 0.0):
            raise ValueError(f"kappa={self.kappa!r} must be finite and >= 0")

    def cos_moments(self) -> MomentTable:
        kappa = self.kappa
        if kappa < _SERIES_CROSSOVER:
            # at kappa = 0 this is exactly the uniform (1, 0, 1/3, 0, 1/5)
            k2 = kappa * kappa
            m1 = kappa * (1 / 3 + k2 * (-1 / 45 + k2 * (2 / 945 + k2 * (
                -1 / 4725 + k2 * (2 / 93555 + k2 * (-1382 / 638512875))))))
            m2 = 1 / 3 + k2 * (2 / 45 + k2 * (-4 / 945 + k2 * (2 / 4725 + k2 * (
                -4 / 93555 + k2 * (2764 / 638512875 + k2 * (-8 / 18243225))))))
            m3 = kappa * (1 / 5 + k2 * (-1 / 105 + k2 * (4 / 4725 + k2 * (
                -13 / 155925 + k2 * (1786 / 212837625 + k2 * (-542 / 638512875))))))
            m4 = 1 / 5 + k2 * (4 / 105 + k2 * (-16 / 4725 + k2 * (52 / 155925 + k2 * (
                -7144 / 212837625 + k2 * (2168 / 638512875 + k2 * (-18664 / 54273594375))))))
            return MomentTable((1.0, m1, m2, m3, m4))
        c = _coth(kappa)
        m1 = c - 1.0 / kappa
        m2 = 1.0 - 2.0 * m1 / kappa
        m3 = c - 3.0 * m2 / kappa
        m4 = 1.0 - 4.0 * m3 / kappa
        return MomentTable((1.0, m1, m2, m3, m4))

    def spread_moments(self) -> tuple[float, float]:
        k = self.kappa
        if k < _SERIES_CROSSOVER:
            k2 = k * k
            v = 4 / 45 + k2 * (8 / 945 + k2 * (-4 / 1575 + k2 * (8 / 18711 + k2 * (
                -5528 / 91216125 + k2 * (16 / 2027025 + k2 * (-14468 / 14801889375))))))
            s = 8 / 15 + k2 * (-16 / 315 + k2 * (8 / 1575 + k2 * (-16 / 31185 + k2 * (
                11056 / 212837625 + k2 * (-32 / 6081075 + k2 * (28936 / 54273594375))))))
            return (v, s)
        m = self.cos_moments()
        v = 4.0 * (3.0 * m[2] - 1.0 - m[1] * m[1]) / (k * k)
        return (max(v, 0.0), 1.0 - 2.0 * m[2] + m[4])

    def density(self, theta: float) -> float:
        k = self.kappa
        if k == 0.0:
            return 1.0 / (4.0 * math.pi)
        # kappa e^{kappa cos} / (4 pi sinh kappa), written to survive large kappa
        return k * math.exp(k * (math.cos(theta) - 1.0)) / (
            2.0 * math.pi * -math.expm1(-2.0 * k))

    def mean_polar_angle(self) -> float:
        k = self.kappa
        if k < _VMF_ANGLE_SERIES_CUT:
            s = 0.0
            for coef in _VMF_ANGLE_SERIES:
                s = s * k + coef
            # sinh(k)/k, not pi k: no subnormal product, and pi/2 at kappa = 0
            return 0.5 * math.pi * s / (math.sinh(k) / k if k else 1.0)
        # scaled by e^{-kappa}: nothing overflows
        return math.pi * float(i0e(k) - math.exp(-2.0 * k)) / -math.expm1(-2.0 * k)

    def cos_inverse_cdf(self, v: np.ndarray) -> np.ndarray:
        k = self.kappa
        if k == 0.0:
            return 1.0 - 2.0 * v
        # invert P(U >= u): u = 1 + log(1 - v (1 - e^{-2k})) / k
        u = 1.0 + np.log1p(v * math.expm1(-2.0 * k)) / k
        np.clip(u, -1.0, 1.0, out=u)
        return u

    def label(self) -> str:
        return f"vmf({self.kappa:g})"


@dataclass(frozen=True)
class Uniform(VonMisesFisher):
    """Haar-uniform input directions over the full sphere: the kappa = 0 vMF."""

    kappa: float = field(default=0.0, init=False, repr=False)

    def label(self) -> str:
        return "uniform"


def cos_moments(dist: InputDistribution) -> MomentTable:
    """First four moments of cos(theta); m0 = 1 always."""
    return dist.cos_moments()


def spread_moments(dist: InputDistribution) -> tuple[float, float]:
    """(Var(cos^2 theta), <sin^4 theta>) in cancellation-free forms.

    Both quantities vanish like theta0^4 (resp. 1/kappa^2) as the
    distribution concentrates, so forming them from cos_moments loses
    most significant digits there; these closed forms do not.
    """
    return dist.spread_moments()


def density(dist: InputDistribution, direction: BlochDirection) -> float:
    """Probability density per unit solid angle at the given direction."""
    return dist.density(direction.theta)


def mean_polar_angle(dist: InputDistribution) -> float:
    """<theta> in closed form, (sin t0 - t0 cos t0) / (1 - cos t0) for a cap and
    pi (I0(kappa) - e^-kappa) / (2 sinh kappa) for a vMF; pi/2 exactly if uniform."""
    return dist.mean_polar_angle()


def sample_directions(dist: InputDistribution, n: int, rng) -> np.ndarray:
    """n input directions, shape (n, 2) as (theta, phi) rows.

    cos(theta) is drawn by exact inverse CDF for every distribution; phi is
    uniform on [0, 2pi).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    gen = np.random.default_rng(rng)
    theta = np.arccos(dist.cos_inverse_cdf(gen.random(n)))
    phi = gen.random(n) * (2.0 * math.pi)
    return np.column_stack((theta, phi))


##### qutrit input manifold #####

# F(theta) = 3 theta/8 - sin(2 theta)/4 + sin(4 theta)/32, the antiderivative
# of sin^4, cancels to ~ theta^5/5 as theta -> 0 (its relative error is 1e-2
# at theta = 3e-4 and F(1e-4) rounds to 0), so below _SIN4_SERIES_CUT it is
# summed from its Taylor series
#   sum_{k>=2} (-1)^k (4^2k - 4^(k+1)) theta^(2k+1) / (8 (2k)! (2k+1))
#   = theta^5/5 - 2 theta^7/21 + theta^9/45 - ...
# The closed form is good to 6e-15 relative from the cut up; at the cut the
# first omitted term (k = 13) is 6e-20 of the sum.
_SIN4_SERIES_CUT = 0.5
_SIN4_SERIES = tuple((-1) ** k * (4 ** (2 * k) - 4 ** (k + 1))
                     / (8 * math.factorial(2 * k) * (2 * k + 1)) for k in range(12, 1, -1))
# F(pi); sin^4 is symmetric about pi/2, so F(pi - x) = F(pi) - F(x)
_SIN4_PI = 0.375 * math.pi
_NEWTON_STEPS = 4


def _sin4_antideriv(theta):
    """(F(theta), sin(theta)), F the antiderivative of sin^4 on [0, pi] with
    F(0) = 0, vectorized; the Newton steps take F' = sin^4 from the second."""
    s, c = np.sin(theta), np.cos(theta)
    # 3 theta/8 - sin(2 theta)/4 + sin(4 theta)/32 in sin and cos of theta
    closed = 0.375 * (theta - s * c) - 0.25 * s * s * s * c
    t2 = theta * theta
    series = _SIN4_SERIES[0]
    for coef in _SIN4_SERIES[1:]:
        series *= t2
        series += coef
    series *= t2 * t2 * theta
    return np.where(theta < _SIN4_SERIES_CUT, series, closed), s


def _invert_sin4_antideriv(target, theta4_max: float) -> np.ndarray:
    """theta4 in [0, theta4_max] with F(theta4) = target, F the sin^4
    antiderivative, for targets in [0, F(theta4_max)].

    Targets above F(pi)/2 fold onto [0, pi/2] through F(pi - x) =
    F(pi) - F(x).  There four Newton steps on F^(1/5) = target^(1/5) start
    from y (1 + 2 y^2/21), y = (5 target)^(1/5), the series of F inverted to
    second order.  F^(1/5) is concave on (0, pi/2] and the start lies below
    the root, so the steps climb to it without a bracket and never
    overshoot; they leave |F(theta4) - target| within a few ulp of
    F(theta4_max) plus sin^4(theta4) times an ulp of theta4.
    """
    upper = target > 0.5 * _SIN4_PI
    t = np.where(upper, _SIN4_PI - target, target)
    tau = t ** 0.2
    th4 = (5.0 * t) ** 0.2
    th4 += th4 * th4 * th4 * (2.0 / 21.0)
    for _ in range(_NEWTON_STEPS):
        # d F^(1/5)/d theta = sin^4 / (5 F^(4/5)); the 1e-300 keeps the
        # target-0 root at 0 instead of 0/0
        f, s = _sin4_antideriv(th4)
        h = f ** 0.2
        r = h / (s + 1e-300)
        r *= r
        th4 -= 5.0 * (h - tau) * r * r
    return np.minimum(np.where(upper, math.pi - th4, th4), theta4_max)


def sample_qutrit_inputs(theta4_max: float, n: int, rng) -> np.ndarray:
    """n qutrit input states, shape (n, 3) complex amplitudes (x, y, z).

    A point of S^5 is (s4 w, c4), s4 = sin(theta4), c4 = cos(theta4), with
    w uniform on S^4 and theta4 of density ~ sin^4(theta4) on
    [0, theta4_max]; theta4_max = pi gives the Haar measure.  w is a
    normalized 5-D standard normal (Muller, Comm. ACM 2, 19 (1959));
    theta4 inverts the sin^4 CDF at a uniform draw by Newton's method
    (_invert_sin4_antideriv).  Then
      x = s4 (w0 + i w1),  y = s4 |(w2, w3)|,  z = |(s4 w4, c4)|.

    The phases of y and z are dropped (they never enter any fidelity here),
    so y and z come out real nonnegative; x keeps the explicit phase.
    """
    if not 0.0 < theta4_max <= math.pi:
        raise ValueError(f"theta4_max={theta4_max!r} outside (0, pi]")
    if n < 0:
        raise ValueError("n must be >= 0")
    gen = np.random.default_rng(rng)
    w = gen.standard_normal((n, 5))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    target = gen.random(n) * _sin4_antideriv(theta4_max)[0]
    th4 = _invert_sin4_antideriv(target, theta4_max)
    s4, c4 = np.sin(th4), np.cos(th4)
    w = w.T
    # one amplitude per row, written through real views: no complex temporaries
    out = np.empty((3, n), dtype=complex)
    re, im = out.real, out.imag
    np.multiply(s4, w[0], out=re[0])
    np.multiply(s4, w[1], out=im[0])
    np.multiply(s4, np.hypot(w[2], w[3]), out=re[1])
    np.hypot(s4 * w[4], c4, out=re[2])
    im[1:] = 0.0
    return out.T
