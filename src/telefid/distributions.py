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

if TYPE_CHECKING:
    from .core import BlochDirection

# vMF moments and spread statistics: below the cut from the Legendre ratios
# r_l = <P_l(cos theta)> (a continued fraction of 13 levels, 13 down to 5 in
# the tail, which truncates at 2e-21 relative at kappa = 2), above it from the
# recursion m_k = coth(kappa) - k m_(k-1)/kappa, which cancels below the cut.
# Both stay within 2e-15 relative of 400-digit values on (0, 1e150].
_SPREAD_CUT = 2.0
_SPREAD_CF_TAIL = tuple(2.0 * l + 1.0 for l in range(13, 4, -1))
# vMF <theta> = pi (I0(k) - e^-k) / (2 sinh k), by parts with int_0^pi e^{k cos}
# = pi I0(k) (A&S 9.6.16): from the power series below the cut, from the
# asymptotic series of I0 (A&S 9.7.1) above it.
_VMF_ANGLE_CUT = 20.0


def _coth_minus_one(x: float) -> float:
    # expm1(2x) overflows past x ~ 354, where coth - 1 = 2 e^-2x is below 1e-300
    if x > 350.0:
        return 0.0
    return 2.0 / math.expm1(2.0 * x)


def _cap_one_minus_cos(theta0: float) -> float:
    # 1 - cos(theta0) without cancellation at small theta0
    s = math.sin(0.5 * theta0)
    return 2.0 * s * s


def _legendre_ratios(k: float) -> tuple[float, float, float, float]:
    """r_l = <P_l(cos theta)> = i_l(k)/i_0(k) for l = 1..4 under a vMF, the
    modified spherical Bessel ratios, as products of q_l = r_l/r_(l-1) from
    the continued fraction q_l = k/(2l + 1 + k q_(l+1)), run down from
    l = 13: positive terms only."""
    q = 0.0
    for odd in _SPREAD_CF_TAIL:
        q = k / (odd + k * q)
    q4 = k / (9.0 + k * q)
    q3 = k / (7.0 + k * q4)
    q2 = k / (5.0 + k * q3)
    r1 = k / (3.0 + k * q2)
    r2 = r1 * q2
    r3 = r2 * q3
    return r1, r2, r3, r3 * q4


class InputDistribution:
    """Base for distributions of input directions (phi always uniform).

    Subclasses supply cos_moments(), spread_moments(), density(theta),
    mean_polar_angle(), cos_inverse_cdf(v) and label().  cos_inverse_cdf
    maps uniform draws v on [0, 1) to cos(theta) in place, overwriting and
    returning v.
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

    def cos_moments(self) -> tuple[float, ...]:
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
        return tuple(out)

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
        # u = 1 - v (1 - cos(theta0)), written over v
        v *= -_cap_one_minus_cos(self.theta0)
        v += 1.0
        np.clip(v, math.cos(self.theta0), 1.0, out=v)
        return v

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

    def cos_moments(self) -> tuple[float, ...]:
        k = self.kappa
        if k < _SPREAD_CUT:
            # u^k in Legendre polynomials; kappa = 0 gives exactly the
            # uniform (1, 0, 1/3, 0, 1/5)
            r1, r2, r3, r4 = _legendre_ratios(k)
            return (1.0, r1, (1.0 + 2.0 * r2) / 3.0, (3.0 * r1 + 2.0 * r3) / 5.0,
                    (7.0 + 20.0 * r2 + 8.0 * r4) / 35.0)
        c = 1.0 + _coth_minus_one(k)
        m1 = c - 1.0 / k
        m2 = 1.0 - 2.0 * m1 / k
        m3 = c - 3.0 * m2 / k
        m4 = 1.0 - 4.0 * m3 / k
        return (1.0, m1, m2, m3, m4)

    def spread_moments(self) -> tuple[float, float]:
        k = self.kappa
        if k < _SPREAD_CUT:
            # u^2 = (1 + 2 P2)/3 and u^4 = (7 + 20 P2 + 8 P4)/35, multiplied out
            _, r2, _, r4 = _legendre_ratios(k)
            return (4.0 * (7.0 + 10.0 * r2 + 18.0 * r4 - 35.0 * r2 * r2) / 315.0,
                    8.0 * (7.0 - 10.0 * r2 + 3.0 * r4) / 105.0)
        # m_k from the recursion in t = 1/k and coth(k) = 1 + e, multiplied out:
        # m4 - m2^2 and 1 - 2 m2 + m4 are t^2 times terms that stay near 1
        t = 1.0 / k
        e = _coth_minus_one(k)
        return (4.0 * t * t * ((1.0 - 4.0 * t + 5.0 * t * t) - e * (2.0 + 4.0 * t + e)),
                8.0 * t * t * ((1.0 - 3.0 * t + 3.0 * t * t) - 3.0 * t * e))

    def density(self, theta: float) -> float:
        k = self.kappa
        if k == 0.0:
            return 1.0 / (4.0 * math.pi)
        # kappa e^{kappa cos} / (4 pi sinh kappa), written to survive large kappa
        return k * math.exp(k * (math.cos(theta) - 1.0)) / (
            2.0 * math.pi * -math.expm1(-2.0 * k))

    def mean_polar_angle(self) -> float:
        k = self.kappa
        if k < _VMF_ANGLE_CUT:
            # (I0(k) - e^-k)/k = sum_n>=1 (-1)^(n+1) k^(n-1)/n! plus
            # sum_m>=1 (k/2)^2m / (k m!^2): terms n = 2m - 1, 2m and m per step
            s, a, b, m = 0.0, 1.0, 0.25 * k, 1
            while a + b > 1e-17 * s:
                s += a - a * k / (2 * m) + b
                a *= k * k / ((2 * m) * (2 * m + 1))
                m += 1
                b *= k * k / (4 * m * m)
            # sinh(k)/k, not pi k: no subnormal product, and pi/2 at kappa = 0
            return 0.5 * math.pi * s / (math.sinh(k) / k if k else 1.0)
        # pi I0(k) e^-k; e^-2k and the e^-k of I0 - e^-k are below 1e-16 here
        s, t, j = 1.0, 1.0, 0
        while t > 1e-17:
            j += 1
            t *= (2 * j - 1) ** 2 / (8.0 * k * j)
            s += t
        return math.sqrt(0.5 * math.pi / k) * s

    def cos_inverse_cdf(self, v: np.ndarray) -> np.ndarray:
        k = self.kappa
        if k == 0.0:
            v *= -2.0
            v += 1.0
            return v
        # invert P(U >= u): u = 1 + log(1 - v (1 - e^{-2k})) / k, written over v
        v *= math.expm1(-2.0 * k)
        np.log1p(v, out=v)
        v /= k
        v += 1.0
        np.clip(v, -1.0, 1.0, out=v)
        return v

    def label(self) -> str:
        return f"vmf({self.kappa:g})"


@dataclass(frozen=True)
class Uniform(VonMisesFisher):
    """Haar-uniform input directions over the full sphere: the kappa = 0 vMF."""

    kappa: float = field(default=0.0, init=False, repr=False)

    def label(self) -> str:
        return "uniform"


def cos_moments(dist: InputDistribution) -> tuple[float, ...]:
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


def sample_directions(dist: InputDistribution, n: int, rng, *,
                      cos_theta: bool = False) -> np.ndarray:
    """n input directions, shape (n, 2) as (theta, phi) rows, or as
    (cos(theta), phi) rows if cos_theta is set.

    cos(theta) is drawn by exact inverse CDF for every distribution and lies
    in [-1, 1]; theta is its arccos, phi uniform on [0, 2pi).  Both forms
    make the same draws in the same order, so their phi columns are equal
    and arccos of the cos(theta) column is the theta column.  The result is
    the transpose of a C-ordered (2, n) array, so each column is contiguous:
    the draws land in it directly, with no temporary of size n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    gen = np.random.default_rng(rng)
    out = np.empty((2, n))
    u, phi = out
    dist.cos_inverse_cdf(gen.random(out=u))
    gen.random(out=phi)
    phi *= 2.0 * math.pi
    if not cos_theta:
        np.arccos(u, out=u)
    return out.T


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
# theta = tau Q(tau^2) + O(4.1e-6) on [0, pi/2], tau = F(theta)^(1/5): Q
# interpolates theta/tau at the 9 Chebyshev nodes in tau^2 on [0, F(pi/2)^(2/5)]
# (roots to 40 digits), in powers of tau^2, highest first.  With
# y = (5F)^(1/5) it is theta = y P(y^2), P(0) = 1 + 9.5e-7.
_SIN4_START = (1.344287297038312, -3.326828675249613, 3.5612068985103917,
               -1.9373154632119094, 0.657605183117681, -0.033929885580530283,
               0.12410641332811467, 0.24988300798040147, 1.37973097837481)
_NEWTON_STEPS = 2


def _sin4_series(theta):
    t2 = theta * theta
    f = _SIN4_SERIES[0]
    for coef in _SIN4_SERIES[1:]:
        f *= t2
        f += coef
    return f * (t2 * t2 * theta)


def _sin4_closed(theta, s):
    # 3 theta/8 - sin(2 theta)/4 + sin(4 theta)/32 in sin and cos of theta
    c = np.cos(theta)
    return 0.375 * (theta - s * c) - 0.25 * s * s * s * c


def _sin4_antideriv(theta):
    """(F(theta), sin(theta)), F the antiderivative of sin^4 on [0, pi] with
    F(0) = 0, for a float or an array; the Newton steps take F' = sin^4 from
    the second.

    The branch that covers most elements runs on the whole array, the other
    only on the elements where it applies: a masked pass costs about as
    much as the series, so splitting both sides would save nothing.
    """
    s = np.sin(theta)
    if isinstance(theta, float):
        return (_sin4_series(theta) if theta < _SIN4_SERIES_CUT
                else _sin4_closed(theta, s)), s
    low = theta < _SIN4_SERIES_CUT
    n_low = np.count_nonzero(low)
    if 2 * n_low < theta.size:
        f = _sin4_closed(theta, s)
        if n_low:
            f[low] = _sin4_series(theta[low])
    else:
        f = _sin4_series(theta)
        if n_low < theta.size:
            high = ~low
            f[high] = _sin4_closed(theta[high], s[high])
    return f, s


def _invert_sin4_antideriv(target, theta4_max: float) -> np.ndarray:
    """theta4 in [0, theta4_max] with F(theta4) = target, F the sin^4
    antiderivative, for targets in [0, F(theta4_max)].

    Targets above F(pi)/2 fold onto [0, pi/2] through F(pi - x) =
    F(pi) - F(x).  There two Newton steps on F^(1/5) = tau, tau =
    target^(1/5), start from tau Q(tau^2) (_SIN4_START), which is within
    4.1e-6 of the root; Newton's quadratic convergence takes that to
    rounding in two steps.  F^(1/5) is concave on (0, pi/2], so a start
    above the root lands below it after one step and the steps climb from
    there.  They leave |F(theta4) - target| within a few ulp of
    F(theta4_max) plus sin^4(theta4) times an ulp of theta4.
    """
    # written in place where the arithmetic allows: each step's arrays are
    # the chunk's largest transient allocations
    upper = target > 0.5 * _SIN4_PI
    t = target.copy()
    np.subtract(_SIN4_PI, target, out=t, where=upper)
    tau = np.power(t, 0.2, out=t)
    t2 = tau * tau
    th4 = t2 * _SIN4_START[0]
    for coef in _SIN4_START[1:-1]:
        th4 += coef
        th4 *= t2
    th4 += _SIN4_START[-1]
    th4 *= tau
    del t2
    for _ in range(_NEWTON_STEPS):
        # d F^(1/5)/d theta = sin^4 / (5 F^(4/5)); the 1e-300 keeps the
        # target-0 root at 0 instead of 0/0
        f, s = _sin4_antideriv(th4)
        h = np.power(f, 0.2, out=f)
        s += 1e-300
        r = np.divide(h, s, out=s)
        r *= r
        # th4 -= 5 (h - tau) r^2
        h -= tau
        h *= 5.0
        h *= r
        h *= r
        th4 -= h
        # freed before the next step's F and sin are allocated
        del f, s, h, r
    np.subtract(math.pi, th4, out=th4, where=upper)
    return np.minimum(th4, theta4_max, out=th4)


def sample_qutrit_inputs(theta4_max: float, n: int, rng, *,
                         populations: bool = False) -> np.ndarray:
    """n qutrit input states: shape (n, 3) complex amplitudes (x, y, z), or
    with populations set the C-ordered (3, n) rows |x|^2, |y|^2, |z|^2.

    A point of S^5 is (s4 w, c4), s4 = sin(theta4), c4 = cos(theta4), with
    w uniform on S^4 and theta4 of density ~ sin^4(theta4) on
    [0, theta4_max]; theta4_max = pi gives the Haar measure.  w is a
    normalized 5-D standard normal (Muller, Comm. ACM 2, 19 (1959));
    theta4 inverts the sin^4 CDF at a uniform draw by Newton's method
    (_invert_sin4_antideriv).  Then
      x = s4 (w0 + i w1),  y = s4 |(w2, w3)|,  z = |(s4 w4, c4)|.

    The phases of y and z are dropped (they never enter any fidelity here),
    so y and z come out real nonnegative; x keeps the explicit phase.  The
    populations are s4^2 (w0^2 + w1^2)/|w|^2, s4^2 (w2^2 + w3^2)/|w|^2 and
    s4^2 w4^2/|w|^2 + c4^2, with no complex array, square root or hypot;
    they equal |x|^2, |y|^2, |z|^2 of the same draws to a few ulp.  Both
    forms make the same draws in the same order: the (n, 5) normal, then
    the uniform draw for theta4.
    """
    if not 0.0 < theta4_max <= math.pi:
        raise ValueError(f"theta4_max={theta4_max!r} outside (0, pi]")
    if n < 0:
        raise ValueError("n must be >= 0")
    gen = np.random.default_rng(rng)
    # the populations are allocated first: the draws and the inversion's
    # transients then sit above them in the heap and, once freed, coalesce
    # into one block, which the simulator's (d + K, n) product reuses
    pops = np.empty((3, n)) if populations else None
    w = gen.standard_normal((n, 5))
    if not populations:
        w /= np.linalg.norm(w, axis=1, keepdims=True)
    target = gen.random(n)
    target *= _sin4_antideriv(theta4_max)[0]
    th4 = _invert_sin4_antideriv(target, theta4_max)
    del target
    s4 = np.sin(th4)
    c4 = np.cos(th4, out=th4)
    w = w.T
    if populations:
        # s4^2 / |w|^2 scales the squared rows; c4^2 joins |z|^2
        w *= w
        np.add(w[0], w[1], out=pops[0])
        np.add(w[2], w[3], out=pops[1])
        pops[2] = w[4]
        s4 *= s4
        s4 /= pops.sum(axis=0)
        pops *= s4
        c4 *= c4
        pops[2] += c4
        return pops
    # one amplitude per row, written through real views: no complex temporaries
    out = np.empty((3, n), dtype=complex)
    re, im = out.real, out.imag
    np.multiply(s4, w[0], out=re[0])
    np.multiply(s4, w[1], out=im[0])
    np.multiply(s4, np.hypot(w[2], w[3]), out=re[1])
    np.hypot(s4 * w[4], c4, out=re[2])
    im[1:] = 0.0
    return out.T
