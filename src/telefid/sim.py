"""Monte Carlo protocol simulators: each protocol is data, one driver runs it.

A protocol is built once per resource from its measurement and correction
operators, never from the closed-form moments, as three pieces of data:
coords(n, rng, inputs=True) -> (inputs, a) draws n inputs and gives the
real coordinates a[:, j] that the protocol sees of input j (with inputs
False a protocol may skip building the inputs and return None for them);
outcome k then has probability p_k = P_k . a, P the (K, d) outcome map; and
p_k f_k = a^T M_k a, f_k the fidelity of the corrected output, M the
(K, d, d) forms.  The qubit (Bell measurement; a the Bloch 4-vector),
qutrit (Weyl measurement; a the populations |x_i|^2) and classical
measure-and-prepare (z measurement; a = (1, cos theta)) protocols all run
this way.  The qubit and classical inputs are the sampler's (cos theta,
phi) rows: cos theta is what it draws, so it is never recomputed from
theta.  The qutrit populations come straight from the sampler when the
amplitudes are not asked for.

`_simulate` reduces a protocol to the moments, with standard errors, of
the outcome-summed fidelity sum_k p_k f_k = a^T G a, G = sum_k M_k, and to
the frequencies of outcomes drawn from p = P a, asking for coordinates
only; `_shots` keeps the shots as columns (ShotRecords): the outcome, the
fidelity a^T M_k a / p_k of that outcome and the drawn inputs, with a
ProtocolRun built only when one is read.  Draws come in a fixed order:
inputs first, then outcomes.  Each chunk gets its own child generator from
SeedSequence.spawn and returns centred moments, which merge in chunk-index
order, so results for a given (n_samples, seed) are identical for any
thread count (TELEFID_THREADS env var, else 1).  The chunk threads are the
only parallelism: each chunk's matrix products stay on its own thread
(`_matmul`).
"""
from __future__ import annotations

import math
import operator
import os
from collections import namedtuple
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce
from itertools import repeat

import numpy as np

from .core import (BellDiagonal, BlochDirection, CorrelationTensor, InputDistribution,
                   PureSchmidt, StateFamily, Werner)
from .distributions import sample_directions, sample_qutrit_inputs
from .fidelity import _components

_CHUNK = 1 << 17
# OpenBLAS splits a dgemm of more than 65536 * 4 multiply-adds over its threads,
# whose spare threads then spin; a (K, d) form here has K * d <= 36, so a block
# of up to _BLOCK + 1 columns stays on the calling thread
_BLOCK = 4096

_S2 = 1.0 / math.sqrt(2.0)
# Bell basis rows in outcome order (phi+, phi-, psi+, psi-); BELL[k, i, a]
# has i the input-qubit index and a the Alice-half index.
BELL = np.array([
    [[_S2, 0.0], [0.0, _S2]],
    [[_S2, 0.0], [0.0, -_S2]],
    [[0.0, _S2], [_S2, 0.0]],
    [[0.0, _S2], [-_S2, 0.0]],
], dtype=complex)

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = np.stack([_I2, _X, _Y, _Z])
# Correction unitaries per outcome for a psi- (singlet-convention) resource
CORR = np.stack([_X @ _Z, _X, _Z, _I2])

_W3 = complex(math.cos(2.0 * math.pi / 3.0), math.sin(2.0 * math.pi / 3.0))


def _weyl(m: int, n: int) -> np.ndarray:
    u = np.zeros((3, 3), dtype=complex)
    for j in range(3):
        u[(j + m) % 3, j] = _W3 ** (j * n)
    return u


WEYL = np.stack([_weyl(m, n) for m in range(3) for n in range(3)])


@dataclass(frozen=True)
class ProtocolRun:
    """One shot: sampled input, measurement record, conditional fidelity."""

    bell_outcome: int
    output_fidelity: float
    input_direction: BlochDirection | None = None
    input_amplitudes: tuple[complex, ...] | None = None


class ShotRecords(Sequence):
    """Shot records held as read-only columns: `outcomes` (intp),
    `fidelities` and `inputs`, the drawn input rows ((cos theta, phi) for
    qubit shots, amplitudes (x, y, z) for qutrit shots).

    A ProtocolRun is built only when a record is indexed or iterated over;
    `fields(inputs)` gives the columns of the records' trailing fields
    (input_direction, input_amplitudes).  A slice is a ShotRecords over
    views of the columns.  A list of the same records compares unequal.
    """

    __slots__ = ("outcomes", "fidelities", "inputs", "_fields")

    def __init__(self, outcomes: np.ndarray, fidelities: np.ndarray, inputs: np.ndarray,
                 fields) -> None:
        for column in (outcomes, fidelities, inputs):
            column.flags.writeable = False
        self.outcomes, self.fidelities, self.inputs = outcomes, fidelities, inputs
        self._fields = fields

    def __len__(self) -> int:
        return len(self.outcomes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ShotRecords(self.outcomes[i], self.fidelities[i], self.inputs[i],
                               self._fields)
        i = operator.index(i)
        n = len(self)
        if not -n <= i < n:
            raise IndexError("shot index out of range")
        i %= n
        # through a one-row slice, so a record has the bits iteration gives it
        return next(iter(self[i:i + 1]))

    def __iter__(self):
        return map(ProtocolRun, self.outcomes.tolist(), self.fidelities.tolist(),
                   *self._fields(self.inputs))

    def __reduce__(self):
        # through __init__, so that unpickled columns are read-only again
        return ShotRecords, (self.outcomes, self.fidelities, self.inputs, self._fields)


@dataclass(frozen=True)
class SimReport:
    """Moments of the per-input fidelity with standard errors."""

    mean: float
    deviation: float
    mean_std_error: float
    deviation_std_error: float
    outcome_frequencies: tuple[float, ...]
    n_samples: int
    seed: int


# Bell projectors keyed by the outcome order above; the BELL rows double
# as state vectors when flattened.
_BELL_VECS = BELL.reshape(4, 4)


def density_matrix(state) -> np.ndarray:
    """4x4 two-qubit density matrix of the shared resource.

    Pure Schmidt and Bell-diagonal families are built directly (the
    Schmidt state carries local polarization that the correlation tensor
    alone cannot encode, and the Bell outcome statistics depend on it).
    A bare CorrelationTensor falls back to the unique maximally-mixed-
    marginal state (I + sum_i t_i sigma_i x sigma_i)/4.
    """
    if isinstance(state, PureSchmidt):
        a = state.alpha
        v = np.zeros(4, dtype=complex)
        v[1] = math.sqrt(a)
        v[2] = -math.sqrt(1.0 - a)
        return np.outer(v, v.conj())
    if isinstance(state, Werner):
        p = state.p
        r = 0.25 * (1.0 - p)
        state = BellDiagonal((p + r, r, r, r))
    if isinstance(state, BellDiagonal):
        # weights attach to (psi-, psi+, phi+, phi-), the outcome rows 3, 2, 0, 1
        vecs = _BELL_VECS[[3, 2, 0, 1]]
        return np.einsum('k,ka,kb->ab', np.asarray(state.weights, dtype=complex),
                         vecs, vecs.conj())
    t1, t2, t3 = _components(state)
    return 0.25 * (np.kron(_I2, _I2) + t1 * np.kron(_X, _X)
                   + t2 * np.kron(_Y, _Y) + t3 * np.kron(_Z, _Z))


def _thread_count(threads: int | None) -> int:
    if threads is not None:
        return max(1, int(threads))
    return max(1, int(os.environ.get("TELEFID_THREADS", "1") or "1"))


def _matmul(form: np.ndarray, a: np.ndarray) -> np.ndarray:
    """form @ a, one column block of about _BLOCK at a time into a single
    preallocated output, so each product runs on the calling thread only.

    A lone last column joins the block before it: on its own it would run as
    a matrix-vector product, whose sums round differently.
    """
    n = a.shape[1]
    out = np.empty((form.shape[0], n))
    lo = 0
    for hi in (*range(_BLOCK, n - 1, _BLOCK), n):
        np.matmul(form, a[:, lo:hi], out=out[:, lo:hi])
        lo = hi
    return out


def _sample_outcomes(p: np.ndarray, rng) -> np.ndarray:
    """One outcome per column of p (K x n), overwritten by its running sums:
    how many of the first K - 1 a uniform draw, scaled by the last, exceeds."""
    for j in range(1, len(p)):
        p[j] += p[j - 1]
    r = rng.random(p.shape[1]) * p[-1]
    k = np.zeros(p.shape[1], dtype=np.intp)
    for c in p[:-1]:
        k += r > c
    return k


def _merge(a, b):
    """Pool (count, mean, M2, M3, M4) of two samples, M_p = sum (f - mean)^p:
    the pairwise update of Chan, Golub & LeVeque (1979) and Pebay (2008)."""
    na, ma, a2, a3, a4 = a
    nb, mb, b2, b3, b4 = b
    n = na + nb
    d = mb - ma
    dn = d / n
    return (n, ma + nb * dn,
            a2 + b2 + na * nb * d * dn,
            a3 + b3 + na * nb * (na - nb) * d * dn * dn + 3.0 * dn * (na * b2 - nb * a2),
            a4 + b4 + na * nb * (na * na - na * nb + nb * nb) * d * dn * dn * dn
            + 6.0 * dn * dn * (na * na * b2 + nb * nb * a2) + 4.0 * dn * (na * b3 - nb * a3))


_Protocol = namedtuple("_Protocol", "coords outcomes forms")


def _simulate(protocol: _Protocol, n_samples: int, seed: int,
              threads: int | None) -> SimReport:
    """Fidelity moments and outcome frequencies of `protocol` over n_samples."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    coords, outcomes, forms = protocol
    # G a and p = P a in one (d + K, m) block, big enough that glibc does not trim the heap
    stacked = np.concatenate((forms.sum(axis=0), outcomes))
    dim = forms.shape[1]

    def chunk(job):
        m, child = job
        rng = np.random.default_rng(child)
        a = coords(m, rng, inputs=False)[1]
        gp = _matmul(stacked, a)
        gp[:dim] *= a
        # the coordinates are spent: freeing them now lets the rest of the
        # chunk reuse their memory instead of growing the heap
        del a
        d = gp[:dim].sum(axis=0)
        k = _sample_outcomes(gp[dim:], rng)
        mean = float(d.mean())
        d -= mean
        d2 = d * d
        moments = (m, mean, float(d2.sum()), float((d2 * d).sum()), float((d2 * d2).sum()))
        return moments, np.bincount(k, minlength=len(outcomes))

    full, rest = divmod(n_samples, _CHUNK)
    sizes = [_CHUNK] * full + [rest] * (rest > 0)
    jobs = list(zip(sizes, np.random.SeedSequence(seed).spawn(len(sizes))))
    workers = _thread_count(threads)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(chunk, jobs))
    else:
        parts = [chunk(job) for job in jobs]
    _, mean, m2, _, m4 = reduce(_merge, [moments for moments, _ in parts])
    counts = sum(counts for _, counts in parts)
    var = m2 / n_samples
    dev = math.sqrt(var)
    # sampling error of the deviation via the fourth central moment
    var_var = max(m4 / n_samples - var * var, 0.0) / n_samples
    se_dev = math.sqrt(var_var) / (2.0 * dev) if dev > 0.0 else 0.0
    return SimReport(mean, dev, math.sqrt(var / n_samples), se_dev,
                     tuple((counts / n_samples).tolist()), n_samples, seed)


def _shots(protocol: _Protocol, n_runs: int, seed: int, fields) -> ShotRecords:
    """The shots' outcomes, their fidelities and the drawn inputs as columns;
    `fields(inputs)` gives the columns of the records' trailing fields."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    inputs, a = protocol.coords(n_runs, rng)
    p = _matmul(protocol.outcomes, a)
    k = _sample_outcomes(p.copy(), rng)
    fid = np.einsum('nij,in,jn->n', protocol.forms[k], a, a) / p[k, np.arange(n_runs)]
    return ShotRecords(k, fid, inputs, fields)


def _qubit_protocol(shared: CorrelationTensor | StateFamily,
                    dist: InputDistribution) -> _Protocol:
    """Bell-measurement teleportation; the operators are contracted once per state.

    An input enters only through its Bloch 4-vector a = (1, s cos(phi),
    s sin(phi), u), |chi><chi| = sum_mu a_mu PAULI[mu]/2, built from the
    drawn u = cos(theta) with s = sin(theta) = sqrt((1 - u)(1 + u)).  Let
    S_k(X) = <B_k|X x rho|B_k> be Bob's unnormalised state after the Bell
    projection BELL[k] and U_k = CORR[k].  Outcome k then has probability
    p_k = P_k . a and fidelity term <chi|U_k S_k U_k^dag|chi> = a^T M_k a,
    with the real P_k[nu] = Tr S_k(sigma_nu)/2 and M_k[mu, nu] =
    Tr[sigma_mu U_k S_k(sigma_nu) U_k^dag]/4, both built from BELL, CORR
    and rho.  The input directions are the only draws.
    """
    rho4 = density_matrix(shared).reshape(2, 2, 2, 2)
    s = np.einsum('kia,nij,abcd,kjc->knbd', BELL.conj(), PAULI, rho4, BELL, optimize=True)
    forms = 0.25 * np.einsum('mxy,kyb,knbd,kxd->kmn', PAULI, CORR, s, CORR.conj(),
                             optimize=True).real

    def coords(n: int, rng, inputs: bool = True):
        up = sample_directions(dist, n, rng, cos_theta=True)
        u, phi = up.T
        a = np.empty((4, n))
        a[0] = 1.0
        np.cos(phi, out=a[1])
        np.sin(phi, out=a[2])
        # sin(theta) = sqrt((1 - u)(1 + u)), never NaN for u in [-1, 1]
        sin_theta = a[3]
        np.subtract(1.0, u, out=sin_theta)
        sin_theta *= 1.0 + u
        np.sqrt(sin_theta, out=sin_theta)
        a[1:3] *= sin_theta
        a[3] = u
        return up, a
    return _Protocol(coords, 0.5 * np.einsum('knbb->kn', s).real, forms)


def _classical_protocol(dist: InputDistribution) -> _Protocol:
    """Measure-and-prepare: measure z, re-prepare the pole state |k>.

    On a = (1, u), u = cos(theta) as drawn, outcome k has p_k =
    |<k|chi>|^2 = P_k . a, P = [[1, 1], [1, -1]]/2, and the re-prepared |k>
    has fidelity p_k, so M_k = P_k P_k^T.
    """
    outcomes = 0.5 * np.array([[1.0, 1.0], [1.0, -1.0]])

    def coords(n: int, rng, inputs: bool = True):
        up = sample_directions(dist, n, rng, cos_theta=True)
        a = np.empty((2, n))
        a[0] = 1.0
        a[1] = up[:, 0]
        return up, a
    return _Protocol(coords, outcomes, np.einsum('ki,kj->kij', outcomes, outcomes))


def _qutrit_protocol(shared, theta4_max: float) -> _Protocol:
    """Weyl-measurement teleportation; the operators are contracted once per state.

    Weyl outcome k has p_k = <x|W_k diag(w) W_k^dag|x>/3 and fidelity term
    t_k^2/3, t_k = <x|W_k diag(sqrt w) W_k^dag|x>, w the Schmidt weights.
    Z^n commutes with diagonal matrices, so W_k diag(w) W_k^dag =
    X^m diag(w) X^-m is diagonal and <x|.|x> is linear in the populations
    a = |x_i|^2.  The diagonals sum_j |W_k[i, j]|^2 w_j, built from WEYL
    and w, give P and the rows f_k of t_k/sqrt 3, so M_k = f_k f_k^T.
    """
    weights = np.asarray(shared.weights())
    f, outcomes = (np.einsum('kij,j,kij->ki', WEYL, w, WEYL.conj()).real
                   for w in (np.sqrt(weights / 3.0), weights / 3.0))

    def coords(n: int, rng, inputs: bool = True):
        if not inputs:
            return None, sample_qutrit_inputs(theta4_max, n, rng, populations=True)
        amps = sample_qutrit_inputs(theta4_max, n, rng)
        # one contiguous row per population keeps numpy's loops fast
        v = np.square(amps.real.T, order='C')
        v += np.square(amps.imag.T)
        return amps, v
    return _Protocol(coords, outcomes, np.einsum('ki,kj->kij', f, f))


def simulate_qubit(shared: CorrelationTensor | StateFamily, dist: InputDistribution,
                   n_samples: int, seed: int = 0,
                   threads: int | None = None) -> SimReport:
    """Simulate the qubit protocol; report fidelity mean and spread.

    The accumulated statistic per input is the outcome-averaged fidelity
    sum_k p_k f_k, so `deviation` estimates the spread over inputs that
    the closed-form moments describe, not shot noise of outcomes.
    """
    return _simulate(_qubit_protocol(shared, dist), n_samples, seed, threads)


def _directions(up: np.ndarray) -> list:
    # arccos of a contiguous column: numpy's vector and strided loops may
    # round differently, and a stepped slice of the records is strided
    theta = np.arccos(np.ascontiguousarray(up[:, 0]))
    return [map(BlochDirection, theta.tolist(), up[:, 1].tolist())]


def qubit_runs(shared: CorrelationTensor | StateFamily, dist: InputDistribution,
               n_runs: int, seed: int = 0) -> ShotRecords:
    """Shot-level records: sampled outcome and its conditional fidelity.

    The inputs column holds the drawn (cos theta, phi); a record's
    input_direction is (arccos of it, phi).
    """
    return _shots(_qubit_protocol(shared, dist), n_runs, seed, _directions)


def simulate_classical(dist: InputDistribution, n_samples: int, seed: int = 0,
                       threads: int | None = None) -> SimReport:
    """Measure-and-prepare baseline: z-basis measurement, basis re-prepare.

    Per-input outcome-averaged fidelity is 1 - sin^2(theta)/2; outcome
    frequencies are the two z results.
    """
    return _simulate(_classical_protocol(dist), n_samples, seed, threads)


def simulate_qutrit(shared, theta4_max: float, n_samples: int, seed: int = 0,
                    threads: int | None = None) -> SimReport:
    """Simulate the qutrit protocol with a Weyl-operator measurement."""
    return _simulate(_qutrit_protocol(shared, theta4_max), n_samples, seed, threads)


def _amplitudes(amps: np.ndarray) -> list:
    return [repeat(None), zip(*amps.T.tolist())]


def qutrit_runs(shared, theta4_max: float, n_runs: int,
                seed: int = 0) -> ShotRecords:
    """Shot-level qutrit records, one Weyl outcome per run; the inputs
    column holds the drawn amplitudes."""
    return _shots(_qutrit_protocol(shared, theta4_max), n_runs, seed, _amplitudes)
