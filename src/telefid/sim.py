"""Monte Carlo protocol simulators: one kernel per protocol, one driver.

A kernel factory contracts a protocol's input-independent operators once
and returns kernel(n, rng) -> (inputs, num[n, k], p[n, k]): n inputs drawn
from the ensemble, the probability p_k of each measurement outcome and
num_k = p_k f_k, f_k the fidelity of the corrected output.  The qubit
(Bell), qutrit (Weyl) and classical measure-and-prepare (z measurement,
re-prepare the pole state) protocols all run in full this way.  The qubit
and qutrit kernels contract their measurement and correction operators
with the resource into real forms on the real coordinates the protocol
sees of an input: its Bloch 4-vector for a qubit, its three populations
|x_i|^2 for a qutrit.  So a chunk's p_k and num_k come from real matmuls,
not per-sample operator chains.  No kernel uses the closed-form moments,
so the simulators check them independently.

`_simulate` reduces any kernel to the moments of the outcome-averaged
fidelity sum_k num_k, with standard errors, and to the frequencies of
outcomes drawn from p; `_shots` keeps one record per shot.  Draws come in
a fixed order: inputs first, then outcomes.  Each chunk gets its own child
generator from SeedSequence.spawn and returns centred moments, which merge
in chunk-index order, so results for a given (n_samples, seed) are
identical for any thread count (TELEFID_THREADS env var, else 1).
"""
from __future__ import annotations

import math
import os
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


def _sample_outcomes(p: np.ndarray, rng) -> np.ndarray:
    """One outcome per row: how many of p's first K - 1 running sums a
    uniform draw, scaled by the row total, exceeds."""
    partial = [p[:, 0]]
    for j in range(1, p.shape[1]):
        partial.append(partial[-1] + p[:, j])
    r = rng.random(p.shape[0]) * partial.pop()
    k = np.zeros(p.shape[0], dtype=np.intp)
    for c in partial:
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


def _simulate(kernel, n_outcomes: int, n_samples: int, seed: int,
              threads: int | None) -> SimReport:
    """Fidelity moments and outcome frequencies of `kernel` over n_samples."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")

    def chunk(job):
        m, child = job
        rng = np.random.default_rng(child)
        _, num, p = kernel(m, rng)
        fbar = num.sum(axis=1)
        k = _sample_outcomes(p, rng)
        mean = float(fbar.mean())
        d = fbar - mean
        d2 = d * d
        moments = (m, mean, float(d2.sum()), float((d2 * d).sum()), float((d2 * d2).sum()))
        return moments, np.bincount(k, minlength=n_outcomes)

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


def _shots(kernel, n_runs: int, seed: int, fields) -> list[ProtocolRun]:
    """One ProtocolRun per shot; `fields(inputs)` gives the columns of the
    records' trailing fields (input_direction, input_amplitudes)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    inputs, num, p = kernel(n_runs, rng)
    k = _sample_outcomes(p, rng)
    rows = np.arange(n_runs)
    fid = num[rows, k] / p[rows, k]
    return list(map(ProtocolRun, k.tolist(), fid.tolist(), *fields(inputs)))


def _qubit_kernel(shared: CorrelationTensor | StateFamily, dist: InputDistribution):
    """Qubit protocol kernel; the operators are contracted once per state.

    An input enters only through its Bloch 4-vector a = (1, sin(theta)
    cos(phi), sin(theta) sin(phi), cos(theta)), |chi><chi| = sum_mu a_mu
    PAULI[mu]/2.  Let S_k(X) = <B_k|X x rho|B_k> be Bob's unnormalised
    state after the Bell projection BELL[k] and U_k = CORR[k].  Outcome k
    then has probability p_k = P_k . a and fidelity term num_k =
    <chi|U_k S_k U_k^dag|chi> = a^T M_k a, with the real
    P_k[nu] = Tr S_k(sigma_nu)/2 and
    M_k[mu, nu] = Tr[sigma_mu U_k S_k(sigma_nu) U_k^dag]/4, stored as
    m[mu, 4k + nu].  Both are built from BELL, CORR and rho, not from the
    closed form.  The input directions are the kernel's only draws.
    """
    rho4 = density_matrix(shared).reshape(2, 2, 2, 2)
    s = np.einsum('kia,nij,abcd,kjc->knbd', BELL.conj(), PAULI, rho4, BELL,
                  optimize=True)
    p_mat = 0.5 * np.einsum('knbb->nk', s).real
    m = 0.25 * np.einsum('mxy,kyb,knbd,kxd->mkn', PAULI, CORR, s, CORR.conj(),
                         optimize=True).real.reshape(4, 16)

    def kernel(n: int, rng):
        tp = sample_directions(dist, n, rng)
        theta, phi = tp.T
        sin = np.sin(theta)
        a = np.array((np.ones(n), sin * np.cos(phi), sin * np.sin(phi),
                      np.cos(theta))).T
        num = np.einsum('nkv,nv->nk', (a @ m).reshape(n, 4, 4), a)
        return tp, num, a @ p_mat
    return kernel


def _classical_kernel(dist: InputDistribution):
    """Measure-and-prepare kernel: measure z, re-prepare the pole state |k>.

    Outcome k has p_k = |<k|chi>|^2, (1 + u)/2 for |0> and (1 - u)/2 for
    |1> with u = cos(theta); |k> has fidelity p_k, so num_k = p_k^2.
    """
    def kernel(n: int, rng):
        tp = sample_directions(dist, n, rng)
        u = np.cos(tp[:, 0])
        # column-major: row sums of a row-major (n, 2) array are ~15x slower
        p = np.array((0.5 * (1.0 + u), 0.5 * (1.0 - u))).T
        return tp, p * p, p
    return kernel


def _qutrit_kernel(shared, theta4_max: float):
    """Qutrit protocol kernel; the operators are contracted once per state.

    Weyl outcome k has p_k = <x|W_k diag(w) W_k^dag|x>/3 and num_k = t_k^2/3,
    t_k = <x|W_k diag(sqrt w) W_k^dag|x>, w the Schmidt weights.  Z^n
    commutes with diagonal matrices, so W_k diag(w) W_k^dag =
    X^m diag(w) X^-m is diagonal and <x|.|x> is linear in the populations
    v = |x_i|^2.  The diagonals sum_j |W_k[i, j]|^2 w_j of the 18 operators
    (t_k/sqrt 3, then p_k), built from WEYL and w, not from the closed
    form, make one real (18, 3) form, and one matmul form @ v evaluates
    them all.
    """
    weights = np.asarray(shared.weights())
    form = np.concatenate([
        np.einsum('kij,j,kij->ki', WEYL, np.sqrt(weights / 3.0), WEYL.conj()),
        np.einsum('kij,j,kij->ki', WEYL, weights / 3.0, WEYL.conj())]).real

    def kernel(n: int, rng):
        amps = sample_qutrit_inputs(theta4_max, n, rng)
        # one row per population: long contiguous rows keep numpy's loops
        # fast, and num and p come out column-major like _classical_kernel's
        re, im = amps.real.T, amps.imag.T
        v = np.empty((3, n))
        np.multiply(re, re, out=v)
        v += im * im
        tp = form @ v
        tp[:9] *= tp[:9]
        return amps, tp[:9].T, tp[9:].T
    return kernel


def simulate_qubit(shared: CorrelationTensor | StateFamily, dist: InputDistribution,
                   n_samples: int, seed: int = 0,
                   threads: int | None = None) -> SimReport:
    """Simulate the qubit protocol; report fidelity mean and spread.

    The accumulated statistic per input is the outcome-averaged fidelity
    sum_k p_k f_k, so `deviation` estimates the spread over inputs that
    the closed-form moments describe, not shot noise of outcomes.
    """
    return _simulate(_qubit_kernel(shared, dist), 4, n_samples, seed, threads)


def qubit_runs(shared: CorrelationTensor | StateFamily, dist: InputDistribution,
               n_runs: int, seed: int = 0) -> list[ProtocolRun]:
    """Shot-level records: sampled outcome and its conditional fidelity."""
    return _shots(_qubit_kernel(shared, dist), n_runs, seed,
                  lambda tp: [map(BlochDirection, *tp.T.tolist())])


def simulate_classical(dist: InputDistribution, n_samples: int, seed: int = 0,
                       threads: int | None = None) -> SimReport:
    """Measure-and-prepare baseline: z-basis measurement, basis re-prepare.

    Per-input outcome-averaged fidelity is 1 - sin^2(theta)/2; outcome
    frequencies are the two z results.
    """
    return _simulate(_classical_kernel(dist), 2, n_samples, seed, threads)


def simulate_qutrit(shared, theta4_max: float, n_samples: int, seed: int = 0,
                    threads: int | None = None) -> SimReport:
    """Simulate the qutrit protocol with a Weyl-operator measurement."""
    return _simulate(_qutrit_kernel(shared, theta4_max), 9, n_samples, seed, threads)


def qutrit_runs(shared, theta4_max: float, n_runs: int,
                seed: int = 0) -> list[ProtocolRun]:
    """Shot-level qutrit records, one Weyl outcome per run."""
    return _shots(_qutrit_kernel(shared, theta4_max), n_runs, seed,
                  lambda amps: [repeat(None), zip(*amps.T.tolist())])
