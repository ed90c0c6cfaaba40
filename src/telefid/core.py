"""Domain types shared by every other module.

The central objects are the diagonal correlation tensor of a two-qubit
resource state, the Bloch-sphere direction of the input state, the input
distribution over those directions, and the standard two-qubit state
families (pure Schmidt-form, Werner, Bell-diagonal).  Each family computes
its own concurrence and correlation tensor.  The input distributions live
in `distributions`, next to their math, and are re-exported here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import InputDistribution, PolarCap, Uniform, VonMisesFisher

_TOL = 1e-9


@dataclass(frozen=True)
class CorrelationTensor:
    """Diagonal correlation tensor diag(t1, t2, t3) of a two-qubit state.

    t_i = Tr[rho (sigma_i x sigma_i)], each in [-1, 1].  Only diagonal
    tensors appear here; the state families below all produce them.
    """

    t1: float
    t2: float
    t3: float

    def __post_init__(self) -> None:
        for name in ("t1", "t2", "t3"):
            v = getattr(self, name)
            if not math.isfinite(v) or abs(v) > 1.0 + _TOL:
                raise ValueError(f"{name}={v!r} outside [-1, 1]")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.t1, self.t2, self.t3)

    def correlation_tensor(self) -> "CorrelationTensor":
        return self


@dataclass(frozen=True)
class BlochDirection:
    """Point on the Bloch sphere: polar angle theta in [0, pi], azimuth phi."""

    theta: float
    phi: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta={self.theta!r} outside [0, pi]")
        if not math.isfinite(self.phi):
            raise ValueError("phi must be finite")

    def unit_vector(self) -> tuple[float, float, float]:
        st = math.sin(self.theta)
        return (st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta))


class StateFamily:
    """Base for the supported two-qubit resource families.

    Subclasses supply concurrence() and correlation_tensor().
    """

    __slots__ = ()


@dataclass(frozen=True)
class PureSchmidt(StateFamily):
    """sqrt(alpha)|01> - sqrt(1-alpha)|10>, with alpha in [0, 1/2].

    alpha = 1/2 is the singlet; alpha = 0 is a product state.
    """

    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 0.5:
            raise ValueError(f"alpha={self.alpha!r} outside [0, 1/2]")

    @classmethod
    def from_concurrence(cls, c: float) -> "PureSchmidt":
        if not 0.0 <= c <= 1.0:
            raise ValueError(f"concurrence {c!r} outside [0, 1]")
        return cls(0.5 * (1.0 - math.sqrt(1.0 - c * c)))

    def concurrence(self) -> float:
        return 2.0 * math.sqrt(self.alpha * (1.0 - self.alpha))

    def correlation_tensor(self) -> CorrelationTensor:
        c = self.concurrence()
        return CorrelationTensor(-c, -c, -1.0)


@dataclass(frozen=True)
class Werner(StateFamily):
    """p |psi-><psi-| + (1-p)/4 I, p in [0, 1]."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p={self.p!r} outside [0, 1]")

    def concurrence(self) -> float:
        return max(0.0, (3.0 * self.p - 1.0) / 2.0)

    def correlation_tensor(self) -> CorrelationTensor:
        return CorrelationTensor(-self.p, -self.p, -self.p)


@dataclass(frozen=True, init=False)
class BellDiagonal(StateFamily):
    """Mixture of the four Bell states, weights stored sorted descending.

    The weights attach, in sorted order, to (psi-, psi+, phi+, phi-); this
    ordering is what makes the rank-3 slice (p, q, 1-p-q, 0) come out as
    the tensor -diag(2p-1, 1-2q, 2(p+q)-1).
    """

    weights: tuple[float, float, float, float]

    def __init__(self, weights) -> None:
        w = tuple(float(x) for x in weights)
        if len(w) != 4:
            raise ValueError("need exactly 4 Bell weights")
        if not all(map(math.isfinite, w)):
            raise ValueError(f"weights {w} not finite")
        if any(x < -_TOL or x > 1.0 + _TOL for x in w):
            raise ValueError(f"weights {w} outside [0, 1]")
        if abs(sum(w) - 1.0) > _TOL:
            raise ValueError(f"weights {w} do not sum to 1")
        w = tuple(sorted((max(0.0, x) for x in w), reverse=True))
        object.__setattr__(self, "weights", w)

    @classmethod
    def rank3(cls, p: float, q: float) -> "BellDiagonal":
        """Three-Bell-state mixture with weights (p, q, 1-p-q, 0)."""
        return cls((p, q, 1.0 - p - q, 0.0))

    def concurrence(self) -> float:
        return max(0.0, 2.0 * self.weights[0] - 1.0)

    def correlation_tensor(self) -> CorrelationTensor:
        # Bell tensors: psi- = -(1,1,1), psi+ = (1,1,-1), phi+ = (1,-1,1),
        # phi- = (-1,1,1); weights attach in that order.
        w1, w2, w3, w4 = self.weights
        return CorrelationTensor(-w1 + w2 + w3 - w4, -w1 + w2 - w3 + w4,
                                 -w1 - w2 + w3 + w4)


@dataclass(frozen=True)
class FidelityStats:
    """First two moments of the teleportation fidelity over the input ensemble."""

    mean: float
    second_moment: float
    deviation: float

    @classmethod
    def from_moments(cls, mean: float, second_moment: float) -> "FidelityStats":
        var = second_moment - mean * mean
        if var < -1e-12:
            raise ValueError(f"negative variance {var!r}")
        return cls(mean, second_moment, math.sqrt(max(var, 0.0)))


@dataclass(frozen=True)
class EstimatorReport:
    """A Monte Carlo estimate together with what is needed to reproduce it."""

    estimate: float
    std_error: float
    n_samples: int
    seed: int


def concurrence(family: StateFamily) -> float:
    """Concurrence of a state from one of the supported families."""
    return family.concurrence()


def correlation_tensor(family: StateFamily) -> CorrelationTensor:
    """Diagonal correlation tensor of a state from one of the supported families.

    A bare CorrelationTensor is returned as it is.
    """
    return family.correlation_tensor()
