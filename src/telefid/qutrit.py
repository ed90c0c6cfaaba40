"""Qutrit teleportation under restricted input ensembles.

The pointwise fidelity of the standard protocol with a Schmidt-form
two-qutrit resource depends on the input only through the quartic sum
P4 = |x|^4 + |y|^4 + |z|^4 and on the resource only through
K = sqrt(ab) + sqrt(a r) + sqrt(b r):  f = K + (1 - K) P4.  Ensemble
averages therefore reduce to the mean of P4 over the input measure.

Also hosts the cross-dimension comparison: the percentage fidelity gain
over the classical benchmark at matched prior information, for qubits
(d = 2) against qutrits (d = 3).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EstimatorReport
from .compare import _bisect, cap_theta0_for_classical_fidelity
from .distributions import _sin4_antideriv
from .fidelity import InfoMeasure
from .sim import simulate_qutrit

_NORM_TOL = 1e-12
# smallest latitude cutoff theta4_for_fractional_info searches down to
_THETA4_FLOOR = 1e-3


@dataclass(frozen=True)
class QutritSharedState:
    """Schmidt weights (a, b, 1-a-b) of a pure two-qutrit resource."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"(a, b)=({self.a!r}, {self.b!r}) not finite")
        if self.a < 0.0 or self.b < 0.0 or self.a + self.b > 1.0 + _NORM_TOL:
            raise ValueError(f"(a, b)=({self.a!r}, {self.b!r}) not a weight pair")

    def weights(self) -> tuple[float, float, float]:
        return (self.a, self.b, max(0.0, 1.0 - self.a - self.b))


@dataclass(frozen=True)
class QutritInput:
    """Unit-norm qutrit amplitudes (x, y, z)."""

    x: complex
    y: complex
    z: complex

    def __post_init__(self) -> None:
        n = abs(self.x) ** 2 + abs(self.y) ** 2 + abs(self.z) ** 2
        if abs(n - 1.0) > _NORM_TOL:
            raise ValueError(f"amplitudes not normalized: |.|^2 = {n!r}")

    @classmethod
    def from_array(cls, v) -> "QutritInput":
        return cls(complex(v[0]), complex(v[1]), complex(v[2]))


def _cross_sum(shared: QutritSharedState) -> float:
    a, b, r = shared.weights()
    return math.sqrt(a * b) + math.sqrt(a * r) + math.sqrt(b * r)


def qutrit_pointwise_fidelity(shared: QutritSharedState, inp: QutritInput) -> float:
    """Fidelity for one input: quartic term plus K-weighted cross term."""
    x2 = abs(inp.x) ** 2
    y2 = abs(inp.y) ** 2
    z2 = abs(inp.z) ** 2
    p4 = x2 * x2 + y2 * y2 + z2 * z2
    q = x2 * y2 + z2 * (x2 + y2)
    return p4 + 2.0 * _cross_sum(shared) * q


def participation_moment(theta4_max: float) -> float:
    """<|x|^4 + |y|^4 + |z|^4> over the restricted input measure.

    Integrating out phi and theta1..theta3 analytically leaves a
    one-dimensional average against the sin^4 marginal of theta4, s = sin
    and c = cos theta4: <P4> = E[(19/35) s^4 + (2/5) s^2 c^2 + c^4].  The
    numerator integrand is s^4 - (8/5) s^6 + (8/7) s^8, and the reduction
    formula I_n = (n-1)/n I_(n-2) - s^(n-1) c/n for I_n = int_0^theta sin^n
    turns its integral into I_4/2 + s^5 c (1/10 - s^2/7).  So, with F = I_4
    the sin^4 antiderivative the sampler inverts,
        <P4> = 1/2 + s^5 c (1/10 - s^2/7) / F(theta4_max).
    pi (the Haar ensemble) and pi/2 both give exactly 1/2.  Up to 1e-8,
    where s^5 and F head for subnormals, it returns the small-cutoff
    expansion 1 - (8/7) theta4_max^2, exact in double there.
    """
    if not 0.0 < theta4_max <= math.pi:
        raise ValueError(f"theta4_max={theta4_max!r} outside (0, pi]")
    if theta4_max <= 1e-8:
        return 1.0 - (8.0 / 7.0) * theta4_max * theta4_max
    f, s = map(float, _sin4_antideriv(theta4_max))
    return 0.5 + s ** 5 * math.cos(theta4_max) * (0.1 - s * s / 7.0) / f


def qutrit_average_fidelity(shared: QutritSharedState, theta4_max: float,
                            method: str = "exact", n_samples: int = 10 ** 6,
                            seed: int = 0) -> EstimatorReport:
    """Average fidelity over the restricted ensemble.

    method "exact" is the closed form K + (1 - K) <P4> (zero reported
    error); "mc" is simulate_qutrit's mean over n_samples inputs and the
    standard error of that mean.
    """
    if method == "exact":
        k = _cross_sum(shared)
        return EstimatorReport(k + (1.0 - k) * participation_moment(theta4_max),
                               0.0, 0, seed)
    if method != "mc":
        raise ValueError(f"unknown method {method!r}")
    rep = simulate_qutrit(shared, theta4_max, n_samples, seed)
    return EstimatorReport(rep.mean, rep.mean_std_error, n_samples, seed)


def qutrit_classical_fidelity(theta4_max: float, method: str = "exact",
                              n_samples: int = 10 ** 6, seed: int = 0) -> EstimatorReport:
    """Classical benchmark: the a = 1 (product-resource) reduction.

    Measuring in the computational basis and re-preparing realizes exactly
    the K = 0 fidelity <P4>; at theta4_max = pi this is 1/2, the known
    uniform-ensemble value for dimension 3.
    """
    return qutrit_average_fidelity(QutritSharedState(1.0, 0.0), theta4_max,
                                   method, n_samples, seed)


def qutrit_prior_information(theta4_max: float) -> InfoMeasure:
    """Prior information of the restricted ensemble relative to uniform."""
    i = participation_moment(theta4_max) - 0.5
    return InfoMeasure(i, 2.0 * i)


def theta4_for_fractional_info(target: float) -> float:
    """Latitude cutoff whose ensemble carries fractional information target.

    Inverts I_f(theta4_max) = 2 <P4> - 1 by bisection on (0, pi/2], where
    it is not monotone: I_f falls from ~1 to 0 at 0.991155, dips to -0.0492
    near 1.2109 and returns to 0 at pi/2.  A target > 0 maps to its one root
    below 0.991155; target 0 maps to pi/2, a special case.
    """
    _check_fractional_info(target)
    if target == 0.0:
        return 0.5 * math.pi
    return _bisect(lambda t: 2.0 * participation_moment(t) - 1.0 - target,
                   _THETA4_FLOOR, 0.5 * math.pi, 1e-12)


def _check_fractional_info(target: float) -> None:
    """Raise ValueError unless theta4_for_fractional_info can invert target."""
    if not 0.0 <= target < 1.0:
        raise ValueError(f"fractional information target {target!r} outside [0, 1)")
    top = 2.0 * participation_moment(_THETA4_FLOOR) - 1.0
    if target >= top:
        raise ValueError(f"target {target!r} above {top:.9f}, the largest "
                         f"invertible with theta4_max >= {_THETA4_FLOOR:g}")


def _qubit_resource_concurrences(n: int, rng, convention: str) -> np.ndarray:
    if convention == "uniform":
        alpha = 0.5 * rng.random(n)
        return 2.0 * np.sqrt(alpha * (1.0 - alpha))
    if convention == "haar":
        g = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        return 2.0 * np.abs(g[:, 0] * g[:, 3] - g[:, 1] * g[:, 2])
    if convention == "maximal":
        return np.ones(n)
    raise ValueError(f"unknown convention {convention!r}")


def _qutrit_resource_cross_sums(n: int, rng, convention: str) -> np.ndarray:
    if convention == "uniform":
        w = rng.dirichlet((1.0, 1.0, 1.0), size=n)
    elif convention == "haar":
        # Schmidt weights of a Haar joint pure state: spectrum of the
        # trace-normalized Wishart matrix G G^dag, G a 3x3 Ginibre draw
        g = rng.normal(size=(n, 3, 3)) + 1j * rng.normal(size=(n, 3, 3))
        w = np.linalg.eigvalsh(g @ np.conj(np.swapaxes(g, 1, 2)))
        w /= w.sum(axis=1, keepdims=True)
    elif convention == "maximal":
        w = np.full((n, 3), 1.0 / 3.0)
    else:
        raise ValueError(f"unknown convention {convention!r}")
    w = np.clip(w, 0.0, None)
    return (np.sqrt(w[:, 0] * w[:, 1]) + np.sqrt(w[:, 0] * w[:, 2])
            + np.sqrt(w[:, 1] * w[:, 2]))


def dimensional_advantage(dim: int, fractional_info: float,
                          ensemble_size: int = 10 ** 4, n_samples: int = 10 ** 5,
                          seed: int = 0, convention: str = "uniform") -> EstimatorReport:
    """Percentage fidelity gain over the classical benchmark, eta_d.

    eta_d = 100 (<F>_d - F_cl) / F_cl, with <F>_d the mean average
    fidelity over ensemble_size random pure resources and F_cl the
    classical fidelity of the d-dimensional ensemble whose fractional
    prior information equals `fractional_info`.

    The resource measure is set by `convention`: "uniform" draws Schmidt
    weights uniformly (alpha on [0, 1/2]; (a, b) on the simplex), "haar"
    draws the joint pure state Haar-uniformly, "maximal" uses the
    maximally entangled resource only.

    F_cl is exact: (2/3)(1 + I_f) for d = 2 and <P4> = (1 + I_f)/2 for
    d = 3, and <F>_d - F_cl = (1 - F_cl) <x>, x the concurrence (d = 2) or
    the cross sum K (d = 3); only x is sampled.  n_samples is unused
    (d = 3 still requires n_samples >= 1).
    """
    if ensemble_size < 1:
        raise ValueError("ensemble_size must be >= 1")
    rng = np.random.default_rng(seed)
    if dim == 2:
        fcl = (2.0 / 3.0) * (1.0 + fractional_info)
        # consistency of the matched cap (also validates the target range)
        cap_theta0_for_classical_fidelity(fcl)
        draw = _qubit_resource_concurrences
    elif dim == 3:
        if n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        fcl = 0.5 * (1.0 + fractional_info)
        # the matched latitude cutoff exists
        _check_fractional_info(fractional_info)
        draw = _qutrit_resource_cross_sums
    else:
        raise ValueError(f"dim must be 2 or 3, got {dim!r}")
    x = draw(ensemble_size, rng, convention)
    gain = (1.0 - fcl) / fcl
    eta = 100.0 * gain * float(x.mean())
    se = 100.0 * gain * float(x.std() / math.sqrt(ensemble_size))
    return EstimatorReport(eta, se, ensemble_size, seed)
