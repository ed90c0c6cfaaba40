"""Teleportation fidelity statistics for diagonal-tensor resources.

The standard protocol teleports the direction (theta, phi) with pointwise
fidelity f = (1 - a^T T a)/2, a the Bloch unit vector.  Because every
supported input density is azimuthally symmetric, all ensemble averages
reduce to polynomials in the cosine moments <cos^k theta>, k <= 4, which
distributions.cos_moments supplies in closed form.  No quadrature happens
in this module; quadrature is the independent oracle in `verify`.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .core import (
    BlochDirection,
    FidelityStats,
    InputDistribution,
    PolarCap,
    correlation_tensor,
)
from .distributions import cos_moments, spread_moments

UNIFORM_CLASSICAL_FIDELITY = 2.0 / 3.0

_SUBCLASSICAL_TOL = 1e-12


class SubclassicalFidelityWarning(UserWarning):
    """Average fidelity fell below the classical benchmark for the ensemble.

    The standard protocol with a weakly entangled (or misaligned) resource
    can do worse than measure-and-prepare; that is a property of the state,
    not an error, so it is reported as a warning.
    """


@dataclass(frozen=True)
class InfoMeasure:
    """Prior information carried by a non-uniform input ensemble.

    absolute:   I   = F_cl(dist) - F_cl(uniform)
    fractional: I_f = I / F_cl(uniform)
    """

    absolute: float
    fractional: float


def _components(state) -> tuple[float, float, float]:
    return correlation_tensor(state).as_tuple()


def pointwise_fidelity(state, direction: BlochDirection) -> float:
    """Fidelity of teleporting the given direction: (1 - a^T T a)/2."""
    t1, t2, t3 = _components(state)
    n1, n2, n3 = direction.unit_vector()
    return 0.5 * (1.0 - t1 * n1 * n1 - t2 * n2 * n2 - t3 * n3 * n3)


def classical_fidelity(dist: InputDistribution) -> float:
    """The paper's classical benchmark F_cl = 1 - <sin^2 theta>/2.

    F_cl is the average fidelity of measuring the input along z and
    re-preparing the observed pole state.  It is not the best fidelity
    without entanglement for a non-uniform ensemble: always preparing |0>
    gives (1 + <cos theta>)/2, which is 0.875 for the cap theta0 = pi/3
    against F_cl = 19/24.  For the uniform sphere F_cl = 2/3 is the
    measure-and-prepare optimum.
    """
    m2 = cos_moments(dist)[2]
    return 0.5 * (1.0 + m2)


def average_fidelity(state, dist: InputDistribution) -> float:
    """Ensemble-average fidelity <f> for a diagonal-tensor resource.

    Emits SubclassicalFidelityWarning when the result falls below
    classical_fidelity(dist); the standard protocol has no optimality
    guarantee for arbitrary tensors.
    """
    return _checked_mean(_components(state), cos_moments(dist)[2])


def _checked_mean(t: tuple[float, float, float], m2: float) -> float:
    """<f> from the tensor and <cos^2 theta>, warning when subclassical."""
    t1, t2, t3 = t
    if t1 == t2 == t3:
        # isotropic tensor: f is the same constant in every direction, so
        # the average cannot depend on the distribution at all
        f = 0.5 * (1.0 - t3)
    else:
        f = 0.5 * (1.0 - 0.5 * (t1 + t2) * (1.0 - m2) - t3 * m2)
    f_cl = 0.5 * (1.0 + m2)
    if f < f_cl - _SUBCLASSICAL_TOL:
        warnings.warn(
            f"average fidelity {f:.6f} is below the classical benchmark "
            f"{f_cl:.6f} for this ensemble",
            SubclassicalFidelityWarning,
            stacklevel=3,
        )
    return f


def fidelity_second_moment(state, dist: InputDistribution) -> float:
    """<f^2> over the input ensemble.

    Writing f = (1 - A)/2 with A = t1 n1^2 + t2 n2^2 + t3 n3^2, the moment
    is (1 - 2<A> + <A^2>)/4.  Azimuthal averages: <cos^2 phi> = 1/2,
    <cos^4 phi> = 3/8, <cos^2 phi sin^2 phi> = 1/8.
    """
    t1, t2, t3 = _components(state)
    if t1 == t2 == t3:
        f = 0.5 * (1.0 - t3)
        return f * f
    m = cos_moments(dist)
    s2 = 1.0 - m[2]                     # <sin^2>
    s4 = 1.0 - 2.0 * m[2] + m[4]        # <sin^4>
    sc = m[2] - m[4]                    # <sin^2 cos^2>
    mean_a = 0.5 * (t1 + t2) * s2 + t3 * m[2]
    mean_a2 = ((0.375 * (t1 * t1 + t2 * t2) + 0.25 * t1 * t2) * s4
               + t3 * t3 * m[4]
               + (t1 + t2) * t3 * sc)
    return 0.25 * (1.0 - 2.0 * mean_a + mean_a2)


def fidelity_stats(state, dist: InputDistribution) -> FidelityStats:
    """Mean, second moment and deviation of f over the ensemble.

    The variance is evaluated in the fused form
        4 Var(f) = (m4 - m2^2) ((t1+t2)/2 - t3)^2 + <sin^4> (t1-t2)^2 / 8
    (both terms nonnegative), which avoids the <f^2> - <f>^2 cancellation
    and keeps the deviation accurate even when it is tiny.
    """
    t1, t2, t3 = t = _components(state)
    mean = _checked_mean(t, cos_moments(dist)[2])
    if t1 == t2 == t3:
        # constant pointwise fidelity: identical stats for every
        # distribution, deviation exactly zero
        return FidelityStats(mean, mean * mean, 0.0)
    var_c2, s4 = spread_moments(dist)
    u = 0.5 * (t1 + t2) - t3
    d = t1 - t2
    var = 0.25 * (var_c2 * u * u + 0.125 * d * d * s4)
    return FidelityStats(mean, mean * mean + var, math.sqrt(var))


def prior_information(dist: InputDistribution) -> InfoMeasure:
    """Absolute and fractional gain of F_cl over the uniform value 2/3."""
    i = classical_fidelity(dist) - UNIFORM_CLASSICAL_FIDELITY
    return InfoMeasure(i, i / UNIFORM_CLASSICAL_FIDELITY)


def is_nonclassical(fidelity_value: float, dist: InputDistribution) -> bool:
    """Strictly above the z-measure-and-reprepare benchmark F_cl?

    For a non-uniform ensemble this does not imply beating every
    entanglement-free strategy; see classical_fidelity.
    """
    return fidelity_value > classical_fidelity(dist)


def werner_threshold(dist: InputDistribution) -> float:
    """Mixing weight p* where the Werner fidelity (1+p)/2 meets F_cl.

    Defined by (1 + p*)/2 = classical_fidelity(dist), which collapses to
    p* = <cos^2 theta>.  Note p* < 1/3 for ensembles wider than a
    hemisphere (their F_cl dips below 2/3); no clamping is applied, the
    defining identity wins.
    """
    return cos_moments(dist)[2]


def bd_rank3_threshold(dist: InputDistribution) -> float:
    """Critical p for the rank-3 Bell-diagonal slice (p, (1-p)/2, (1-p)/2).

    Solving average fidelity = F_cl gives p* = (1 + m2)/(3 - m2); for a
    polar cap that is (4 + c + c^2)/(8 - c - c^2) with c = cos(theta0).
    Only the polar cap is supported here; other distributions go through
    the general is_nonclassical predicate.
    """
    if not isinstance(dist, PolarCap):
        raise TypeError("bd_rank3_threshold is defined for PolarCap only")
    c = math.cos(dist.theta0)
    return (4.0 + c + c * c) / (8.0 - c - c * c)
