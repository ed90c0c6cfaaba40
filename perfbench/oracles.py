"""Reference values computed apart from telefid.

Nothing here imports telefid.  Ensembles are plain tuples:
("uniform",), ("cap", theta0) or ("vmf", kappa).  Two-qubit resources are
4x4 density matrices written out from their definitions, and every
ensemble average is a Gauss-Legendre quadrature, so a fault in the
program's closed forms, samplers or simulators cannot also sit in the
value it is checked against.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

_S2 = 1.0 / math.sqrt(2.0)
I2 = np.eye(2, dtype=complex)
PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]], dtype=complex),
         np.array([[1, 0], [0, -1]], dtype=complex))

# Bell vectors on |00>, |01>, |10>, |11>, in the simulator's outcome order
PHI_PLUS = np.array([_S2, 0, 0, _S2], dtype=complex)
PHI_MINUS = np.array([_S2, 0, 0, -_S2], dtype=complex)
PSI_PLUS = np.array([0, _S2, _S2, 0], dtype=complex)
PSI_MINUS = np.array([0, _S2, -_S2, 0], dtype=complex)

# exp(-46) < 1e-20: the vMF weight beyond this is below double precision
_VMF_TAIL = 46.0


def _projector(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


def rho_pure(alpha: float) -> np.ndarray:
    """sqrt(alpha)|01> - sqrt(1 - alpha)|10>; the first qubit is Alice's half."""
    return _projector(np.array([0.0, math.sqrt(alpha), -math.sqrt(1.0 - alpha), 0.0],
                               dtype=complex))


def rho_werner(p: float) -> np.ndarray:
    return p * _projector(PSI_MINUS) + (1.0 - p) * np.eye(4) / 4.0


def rho_bell_diagonal(weights) -> np.ndarray:
    """Largest weight on psi-, then psi+, phi+, phi- (the family's convention)."""
    w = sorted(weights, reverse=True)
    return sum(wk * _projector(v) for wk, v in zip(w, (PSI_MINUS, PSI_PLUS,
                                                         PHI_PLUS, PHI_MINUS)))


def rho_tensor(t) -> np.ndarray:
    """(I + sum_i t_i sigma_i x sigma_i)/4, the state with unpolarized halves."""
    return (np.eye(4) + sum(ti * np.kron(s, s) for ti, s in zip(t, PAULI))) / 4.0


def _expectation(rho: np.ndarray, op: np.ndarray) -> float:
    """Re Tr(rho op).

    The oracles use no BLAS call: a multithreaded one leaves OpenBLAS threads
    spinning into the next timed round on this 2-core machine.
    """
    return float((rho * op.T).sum().real)


def correlations(rho: np.ndarray) -> tuple[float, float, float]:
    """t_i = Tr(rho sigma_i x sigma_i)."""
    return tuple(_expectation(rho, np.kron(s, s)) for s in PAULI)


def alice_polarization_z(rho: np.ndarray) -> float:
    """Tr(rho sigma_z x I): the bias of Alice's half along the ensemble axis."""
    return _expectation(rho, np.kron(PAULI[2], I2))


@functools.lru_cache(maxsize=None)
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def gauss(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = _legendre(n)
    return 0.5 * (a + b) + 0.5 * (b - a) * x, 0.5 * (b - a) * w


def polar_rule(ens, n: int = 160) -> tuple[np.ndarray, np.ndarray]:
    """Nodes u = cos(theta) and normalized weights of the ensemble's u-density."""
    kind = ens[0]
    if kind == "cap":
        u, w = gauss(math.cos(ens[1]), 1.0, n)
    elif kind == "vmf" and ens[1] > 0.0:
        kappa = ens[1]
        u, w = gauss(max(-1.0, 1.0 - _VMF_TAIL / kappa), 1.0, n)
        w = w * np.exp(kappa * (u - 1.0))
    else:
        u, w = gauss(-1.0, 1.0, n)
    return u, w / w.sum()


def cos_moment(ens, k: int) -> float:
    u, w = polar_rule(ens)
    return float((w * u ** k).sum())


def classical_fidelity(ens) -> float:
    """Measure-and-reprepare benchmark (1 + <cos^2 theta>)/2."""
    return 0.5 * (1.0 + cos_moment(ens, 2))


@dataclass(frozen=True)
class Spread:
    """Mean, deviation and kurtosis of a per-input fidelity over its ensemble."""

    mean: float
    deviation: float
    kurtosis: float

    def mean_se(self, n: int) -> float:
        return self.deviation / math.sqrt(n)

    def deviation_se(self, n: int) -> float:
        """Standard error of the sample deviation of n draws."""
        return self.deviation * math.sqrt(max(self.kurtosis - 1.0, 0.0) / (4.0 * n))


def _spread(values: np.ndarray, weights: np.ndarray) -> Spread:
    """Moments of `values` (nodes along axis 0) under normalized node weights.

    Central moments are taken about the mean, so a deviation near zero does
    not come out of cancellation.  Trailing axes are averaged uniformly.
    """
    def avg(x):
        return float((weights * x.reshape(len(weights), -1).mean(axis=1)).sum())
    mean = avg(values)
    d2 = (values - mean) * (values - mean)
    c2, c4 = avg(d2), avg(d2 * d2)
    return Spread(mean, math.sqrt(c2), c4 / (c2 * c2) if c2 > 0.0 else 0.0)


def fidelity_moments(t, ens) -> Spread:
    """Spread of f = (1 - sum_i t_i n_i^2)/2 over the ensemble.

    u by Gauss-Legendre, phi by the 16-point trapezoid rule, exact for the
    degree-8 trigonometric polynomials in phi that f^4 is.
    """
    u, w = polar_rule(ens)
    phi = (np.arange(16) + 0.5) * (2.0 * math.pi / 16.0)
    s2 = (1.0 - u * u)[:, None]
    a = (t[0] * np.cos(phi) ** 2 + t[1] * np.sin(phi) ** 2) * s2 + t[2] * (u * u)[:, None]
    return _spread(0.5 * (1.0 - a), w)


def classical_moments(ens) -> Spread:
    """Spread of the measure-and-reprepare fidelity (1 + cos^2 theta)/2."""
    u, w = polar_rule(ens)
    return _spread(0.5 * (1.0 + u * u), w)


def bell_outcome_probabilities(rho: np.ndarray, ens) -> np.ndarray:
    """Averaged (phi+, phi-, psi+, psi-) probabilities.

    (1 -+ (1 - 2 alpha) <cos theta>)/4 for the pure family, written with
    Alice's polarization so that it also covers the unpolarized families.
    """
    bias = alice_polarization_z(rho) * cos_moment(ens, 1)
    return np.array([1.0 + bias, 1.0 + bias, 1.0 - bias, 1.0 - bias]) / 4.0


def mean_polar_angle(ens, n: int = 200) -> float:
    """<theta> by quadrature in theta, where the weight is smooth."""
    kind = ens[0]
    if kind == "cap":
        hi = ens[1]
    elif kind == "vmf" and ens[1] > 0.0:
        hi = min(math.pi, math.pi * math.sqrt(0.5 * _VMF_TAIL / ens[1]))
    else:
        hi = math.pi
    th, w = gauss(0.0, hi, n)
    w = w * np.sin(th)
    if kind == "vmf" and ens[1] > 0.0:
        w = w * np.exp(ens[1] * (np.cos(th) - 1.0))
    return float((w * th).sum() / w.sum())


def cap_for_classical_fidelity(target: float) -> float:
    """theta0 in (0, pi/2] whose cap has classical fidelity `target`, by bisection."""
    lo, hi = 1e-9, 0.5 * math.pi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if classical_fidelity(("cap", mid)) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def entropy_bits(p) -> float:
    return float(-sum(x * math.log2(x) for x in p if x > 0.0))


# ------------------------------------------------------------------ qutrit

@functools.lru_cache(maxsize=1)
def _inner_grid(n: int):
    """theta1..theta3 nodes of the S^5 chart, weights sin, sin^2, sin^3."""
    out = []
    for k in (1, 2, 3):
        th, w = gauss(0.0, math.pi, n)
        out.append((np.sin(th), np.cos(th), w * np.sin(th) ** k))
    (s1, c1, w1), (s2, c2, w2), (s3, c3, w3) = out
    x_part = (s1[:, None] ** 2) * (s2[None, :] ** 2)                 # |x|^2 / (s3 s4)^2
    y_part = (c1[:, None] ** 2) * (s2[None, :] ** 2) + c2[None, :] ** 2
    w12 = w1[:, None] * w2[None, :]
    return x_part.ravel(), y_part.ravel(), w12.ravel(), s3 ** 2, c3 ** 2, w3


def p4_moments(theta4_max: float, n: int = 20) -> Spread:
    """Spread of P4 = |x|^4 + |y|^4 + |z|^4 over the restricted chart.

    The chart is the one the sampler documents: |x|^2 = s1^2 s2^2 s3^2 s4^2,
    |y|^2 = (c1^2 s2^2 + c2^2) s3^2 s4^2, |z|^2 = c3^2 s4^2 + c4^2, with
    theta4 <= theta4_max and weights sin^k(theta_k).  <P4> is exactly 1/2
    at theta4_max = pi (Dirichlet(1, 1, 1) weights).
    """
    xp, yp, w12, s3sq, c3sq, w3 = _inner_grid(n)
    th4, w4 = gauss(0.0, theta4_max, n)
    w4 = w4 * np.sin(th4) ** 4
    s4sq, c4sq = np.sin(th4) ** 2, np.cos(th4) ** 2
    r = s3sq[:, None] * s4sq[None, :]                                # (n3, n4)
    zz = c3sq[:, None] * s4sq[None, :] + c4sq[None, :]
    xx = xp[:, None, None] * r[None]
    yy = yp[:, None, None] * r[None]
    p4 = xx * xx + yy * yy + (zz * zz)[None]
    wt = w12[:, None, None] * (w3[:, None] * w4[None, :])[None]
    return _spread(p4.ravel(), (wt / wt.sum()).ravel())


def fractional_info_qutrit(theta4_max: float) -> float:
    """I_f = 2 <P4> - 1: the uniform qutrit classical fidelity is 1/2."""
    return 2.0 * p4_moments(theta4_max).mean - 1.0


def qutrit_cross_sum(weights) -> float:
    a, b, r = weights
    return math.sqrt(a * b) + math.sqrt(a * r) + math.sqrt(b * r)


def qutrit_fidelity_moments(weights, theta4_max: float) -> Spread:
    """Spread of f = K + (1 - K) P4 over the restricted qutrit ensemble."""
    k = qutrit_cross_sum(weights)
    p4 = p4_moments(theta4_max)
    return Spread(k + (1.0 - k) * p4.mean, (1.0 - k) * p4.deviation, p4.kurtosis)


# Mean of sqrt(ab) + sqrt(ar) + sqrt(br) for (a, b, r) ~ Dirichlet(1, 1, 1):
# 3 E[sqrt(ab)] = 3 Gamma(3) Gamma(3/2)^2 / Gamma(4) = pi/4.
MEAN_CROSS_SUM_UNIFORM = 3.0 * math.gamma(3.0) * math.gamma(1.5) ** 2 / math.gamma(4.0)
# Mean concurrence 2 sqrt(alpha (1 - alpha)) for alpha uniform on [0, 1/2]:
# 2 B(3/2, 3/2) = 2 Gamma(3/2)^2 / Gamma(3) = pi/4.
MEAN_CONCURRENCE_UNIFORM = 2.0 * math.gamma(1.5) ** 2 / math.gamma(3.0)
