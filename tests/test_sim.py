import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from telefid.core import (BellDiagonal, CorrelationTensor, PolarCap, PureSchmidt,
                          Uniform, VonMisesFisher, Werner, correlation_tensor)
from telefid.distributions import sample_directions
from telefid.fidelity import classical_fidelity, fidelity_stats
from telefid.qutrit import (QutritSharedState, qutrit_average_fidelity)
from telefid.resources import bell_probabilities_averaged
from telefid import sim, verify
from telefid.sim import (BELL, CORR, WEYL, _BLOCK, _CHUNK, SimReport, _classical_protocol,
                         _matmul, _merge, _qubit_protocol, _qutrit_protocol,
                         density_matrix, qubit_runs, qutrit_runs, simulate_classical,
                         simulate_qubit, simulate_qutrit)

_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_I2 = np.eye(2)


def _z_score(estimate, truth, se):
    assert se > 0.0
    return abs(estimate - truth) / se


def _evaluate(protocol, n, seed):
    """(inputs, num[n, K], p[n, K]) from a protocol's data: num_k = a^T M_k a
    and p = P a at the coordinates a of n inputs drawn with `seed`."""
    inputs, a = protocol.coords(n, np.random.default_rng(seed))
    return (inputs, np.einsum('kij,in,jn->nk', protocol.forms, a, a),
            (protocol.outcomes @ a).T)


def _qubit_ket(theta, phi):
    return np.array([math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)])


class TestDensityMatrix:
    @pytest.mark.parametrize("state", [
        PureSchmidt(0.2),
        Werner(0.7),
        BellDiagonal((0.5, 0.3, 0.15, 0.05)),
    ])
    def test_valid_density_matrix(self, state):
        rho = density_matrix(state)
        assert rho.shape == (4, 4)
        assert math.isclose(np.trace(rho).real, 1.0, abs_tol=1e-14)
        assert np.allclose(rho, rho.conj().T, atol=1e-14)
        assert np.linalg.eigvalsh(rho).min() > -1e-14

    @pytest.mark.parametrize("state", [
        PureSchmidt(0.2),
        Werner(0.45),
        BellDiagonal((0.4, 0.3, 0.2, 0.1)),
    ])
    def test_correlation_tensor_match(self, state):
        rho = density_matrix(state)
        expected = correlation_tensor(state).as_tuple()
        for sigma, t in zip((_X, _Y, _Z), expected):
            val = np.trace(rho @ np.kron(sigma, sigma)).real
            assert math.isclose(val, t, abs_tol=1e-12)

    def test_pure_state_local_polarization(self):
        # the Schmidt state is not maximally mixed locally: <Z_A> = 2 alpha - 1
        alpha = 0.15
        rho = density_matrix(PureSchmidt(alpha))
        za = np.trace(rho @ np.kron(_Z, _I2)).real
        assert math.isclose(za, 2 * alpha - 1, abs_tol=1e-14)

    def test_werner_equals_bell_diagonal_form(self):
        p = 0.6
        r = 0.25 * (1 - p)
        got = density_matrix(Werner(p))
        want = density_matrix(BellDiagonal((p + r, r, r, r)))
        assert np.allclose(got, want, atol=1e-15)


class TestKernelAgainstProtocolChain:
    """The precomputed per-outcome forms reproduce the protocol run per input."""

    @staticmethod
    def _chain(chi, rho):
        # |chi><chi| x rho on (input, A, B); project (input, A) on each Bell
        # vector, trace it out, correct Bob's qubit, overlap with the input
        full = np.kron(np.outer(chi, chi.conj()), rho)
        p, num = [], []
        for bell, corr in zip(BELL, CORR):
            proj = np.kron(np.outer(bell.reshape(4), bell.reshape(4).conj()), _I2)
            post = (proj @ full @ proj).reshape(4, 2, 4, 2)
            sigma = np.einsum('ibic->bc', post)
            out = corr @ sigma @ corr.conj().T
            p.append(np.trace(sigma).real)
            num.append((chi.conj() @ out @ chi).real)
        return np.array(p), np.array(num)

    @pytest.mark.parametrize("state", [
        PureSchmidt(0.2),
        Werner(0.7),
        BellDiagonal((0.5, 0.3, 0.15, 0.05)),
        CorrelationTensor(0.3, -0.5, 0.2),
    ])
    @pytest.mark.parametrize("dist", [Uniform(), PolarCap(1.2)])
    def test_matches_explicit_chain(self, state, dist):
        up, num, p = _evaluate(_qubit_protocol(state, dist), 64, 29)
        rho = density_matrix(state)
        for n, (u, phi) in enumerate(up):
            p_ref, num_ref = self._chain(_qubit_ket(math.acos(u), phi), rho)
            assert np.allclose(p[n], p_ref, rtol=0.0, atol=1e-14)
            assert np.allclose(num[n], num_ref, rtol=0.0, atol=1e-14)
        assert np.allclose(p.sum(axis=1), 1.0, rtol=0.0, atol=1e-14)


class TestQutritKernelAgainstProtocolChain:
    """The contracted Weyl form reproduces the protocol run per input."""

    @staticmethod
    def _chain(x, weights):
        # |x> x sum_j sqrt(w_j)|j>|j> on (input, A, B); project (input, A) on
        # each generalized Bell state (W_k x I)|Phi+>, apply Bob's correction
        # W_k, overlap with the input
        psi = np.diag(np.sqrt(weights)).reshape(9)
        full = np.kron(x, psi).reshape(9, 3)
        p, num = [], []
        for w_k in WEYL:
            bell = w_k.reshape(9) / math.sqrt(3.0)
            bob = bell.conj() @ full
            out = w_k @ bob
            p.append(np.vdot(bob, bob).real)
            num.append(abs(np.vdot(x, out)) ** 2)
        return np.array(p), np.array(num)

    @pytest.mark.parametrize("weights", [(0.5, 0.3), (1.0, 0.0), (1 / 3, 1 / 3), (0.6, 0.0)],
                             ids=["generic", "product", "maximal", "two-level"])
    def test_matches_explicit_chain(self, weights, monkeypatch):
        def haar_inputs(theta4_max, n, rng):
            # complex y and z, which the S^5 sampler never produces
            g = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
            return g / np.linalg.norm(g, axis=1, keepdims=True)
        monkeypatch.setattr(sim, "sample_qutrit_inputs", haar_inputs)
        shared = QutritSharedState(*weights)
        amps, num, p = _evaluate(_qutrit_protocol(shared, math.pi), 64, 37)
        assert np.abs(amps[:, 1:].imag).min() > 0.0
        for n, x in enumerate(amps):
            p_ref, num_ref = self._chain(x, shared.weights())
            assert np.allclose(p[n], p_ref, rtol=0.0, atol=1e-14)
            assert np.allclose(num[n], num_ref, rtol=0.0, atol=1e-14)
        assert np.allclose(p.sum(axis=1), 1.0, rtol=0.0, atol=1e-14)


class TestWeylFormsDiagonal:
    def test_off_diagonal_entries_are_zero(self):
        # X^m Z^n diag(w) Z^-n X^-m = X^m diag(w) X^-m: the qutrit protocol's
        # forms keep only the diagonals
        rng = np.random.default_rng(41)
        for _ in range(20):
            w = rng.random(3)
            ops = np.einsum('kij,j,klj->kil', WEYL, w, WEYL.conj())
            off = ops[:, ~np.eye(3, dtype=bool)]
            assert np.all(off == 0.0)


class TestProductResourceIsClassical:
    """The product resource |1>|0> runs the z measure-and-prepare benchmark."""

    @pytest.mark.parametrize("dist", [Uniform(), PolarCap(0.8), VonMisesFisher(4.0)])
    def test_matches_classical_kernel(self, dist):
        up, num, p = _evaluate(_qubit_protocol(PureSchmidt(0.0), dist), 256, 43)
        up_cl, num_cl, p_cl = _evaluate(_classical_protocol(dist), 256, 43)
        assert np.array_equal(up, up_cl)
        assert np.allclose(num.sum(axis=1), num_cl.sum(axis=1), rtol=0.0, atol=1e-15)
        # the input's |0> component pairs with Alice's |1> only in psi+-
        assert np.allclose(p[:, 2] + p[:, 3], p_cl[:, 0], rtol=0.0, atol=1e-15)


class TestClassicalKernelAgainstProtocolChain:
    """The measure-and-prepare forms reproduce the protocol run per input."""

    @pytest.mark.parametrize("dist", [Uniform(), PolarCap(0.8), VonMisesFisher(4.0)])
    def test_matches_explicit_chain(self, dist):
        up, num, p = _evaluate(_classical_protocol(dist), 64, 31)
        basis = np.eye(2)
        for n, (u, phi) in enumerate(up):
            chi = _qubit_ket(math.acos(u), phi)
            rho = np.outer(chi, chi.conj())
            for k, ket in enumerate(basis):
                # measure z with projector |k><k|, then re-prepare |k>
                proj = np.outer(ket, ket)
                p_ref = np.trace(proj @ rho).real
                out = p_ref * proj
                num_ref = (chi.conj() @ out @ chi).real
                assert abs(p[n, k] - p_ref) <= 1e-14
                assert abs(num[n, k] - num_ref) <= 1e-14
        assert np.allclose(p.sum(axis=1), 1.0, rtol=0.0, atol=1e-14)


class TestCosThetaCoordinates:
    """The qubit and classical protocols see the sampler's cos(theta) itself."""

    @pytest.mark.parametrize("dist", [PolarCap(1e-8), PolarCap(1.2), PolarCap(math.pi),
                                      Uniform(), VonMisesFisher(1e4)])
    def test_coordinates(self, dist):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            up, a = _qubit_protocol(PureSchmidt(0.2), dist).coords(4097, np.random.default_rng(3))
            up_cl, a_cl = _classical_protocol(dist).coords(4097, np.random.default_rng(3))
        assert np.array_equal(up, up_cl)
        assert np.all(a[0] == 1.0) and np.all(a_cl[0] == 1.0)
        assert np.array_equal(a[3], up[:, 0]) and np.array_equal(a_cl[1], up[:, 0])
        norm = np.sqrt(a[1] ** 2 + a[2] ** 2 + a[3] ** 2)
        assert np.abs(norm - 1.0).max() <= 4 * np.spacing(1.0)

    def test_shot_directions(self):
        # a shot's theta is the default sampler's theta for the same draw
        dist = PolarCap(1.2)
        runs = qubit_runs(PureSchmidt(0.2), dist, 500, seed=61)
        rng = np.random.default_rng(np.random.SeedSequence(61).spawn(1)[0])
        tp = sample_directions(dist, 500, rng)
        assert [r.input_direction.theta for r in runs] == tp[:, 0].tolist()
        assert [r.input_direction.phi for r in runs] == tp[:, 1].tolist()


class TestOutcomeSums:
    """sum_k M_k, the form of the outcome-summed fidelity, is its closed form."""

    @pytest.mark.parametrize("state", [
        PureSchmidt(0.2),
        PureSchmidt(0.0),
        Werner(0.7),
        BellDiagonal((0.5, 0.3, 0.15, 0.05)),
        CorrelationTensor(0.3, -0.5, 0.2),
    ])
    def test_qubit(self, state):
        t = correlation_tensor(state).as_tuple()
        gram = _qubit_protocol(state, Uniform()).forms.sum(axis=0)
        want = 0.5 * np.diag([1.0, -t[0], -t[1], -t[2]])
        assert np.allclose(gram, want, rtol=0.0, atol=1e-15)

    def test_qutrit(self):
        # sum_k f_k f_k^T = K J + (1 - K) I: f = K + (1 - K) P4 on populations
        rng = np.random.default_rng(47)
        for w in rng.dirichlet((1.0, 1.0, 1.0), size=8):
            shared = QutritSharedState(w[0], w[1])
            gram = _qutrit_protocol(shared, math.pi).forms.sum(axis=0)
            a, b, r = shared.weights()
            k = math.sqrt(a * b) + math.sqrt(a * r) + math.sqrt(b * r)
            want = k * np.ones((3, 3)) + (1.0 - k) * np.eye(3)
            assert np.allclose(gram, want, rtol=0.0, atol=1e-15)

    def test_classical(self):
        gram = _classical_protocol(Uniform()).forms.sum(axis=0)
        assert np.array_equal(gram, 0.5 * np.eye(2))


class TestShotFidelityAgainstProtocolChain:
    """A shot's fidelity is the chain's num_k / p_k at its recorded outcome."""

    def test_qubit(self):
        state = BellDiagonal((0.5, 0.3, 0.15, 0.05))
        rho = density_matrix(state)
        for run in qubit_runs(state, PolarCap(1.2), 64, seed=53):
            d = run.input_direction
            p_ref, num_ref = TestKernelAgainstProtocolChain._chain(
                _qubit_ket(d.theta, d.phi), rho)
            k = run.bell_outcome
            assert abs(run.output_fidelity - num_ref[k] / p_ref[k]) <= 1e-14

    def test_qutrit(self):
        shared = QutritSharedState(0.5, 0.3)
        for run in qutrit_runs(shared, math.pi, 64, seed=59):
            p_ref, num_ref = TestQutritKernelAgainstProtocolChain._chain(
                np.array(run.input_amplitudes), shared.weights())
            k = run.bell_outcome
            assert abs(run.output_fidelity - num_ref[k] / p_ref[k]) <= 1e-14


class TestMomentMerge:
    def test_matches_direct_centred_sums(self):
        f = 5.0 + np.random.default_rng(1).standard_normal(100003) ** 3
        parts = np.split(f, [40000, 40001, 90000])

        def moments(x):
            d = x - x.mean()
            return (len(x), x.mean(), (d ** 2).sum(), (d ** 3).sum(), (d ** 4).sum())
        merged = moments(parts[0])
        for part in parts[1:]:
            merged = _merge(merged, moments(part))
        for got, want in zip(merged, moments(f)):
            assert math.isclose(got, want, rel_tol=1e-12)


class TestDeterminism:
    def test_same_seed_same_report(self):
        args = (PureSchmidt.from_concurrence(0.6), PolarCap(1.5), 20000, 9)
        r1 = simulate_qubit(*args)
        r2 = simulate_qubit(*args)
        assert r1 == r2

    @pytest.mark.parametrize("simulate,args", [
        (simulate_qubit, (BellDiagonal((0.55, 0.25, 0.12, 0.08)), VonMisesFisher(2.0))),
        (simulate_classical, (VonMisesFisher(2.0),)),
        (simulate_qutrit, (QutritSharedState(0.5, 0.3), 1.0)),
    ], ids=["qubit", "classical", "qutrit"])
    def test_thread_count_invariance(self, simulate, args):
        base = simulate(*args, 300000, 3, threads=1)
        multi = simulate(*args, 300000, 3, threads=4)
        assert base == multi


class TestQubitAgainstClosedForm:
    @pytest.mark.parametrize("fam,dist", [
        (PureSchmidt.from_concurrence(0.8), PolarCap(2 * math.pi / 5)),
        (BellDiagonal((0.5, 0.25, 0.15, 0.1)), VonMisesFisher(3.0)),
        (BellDiagonal.rank3(0.5, 0.3), Uniform()),
    ])
    @pytest.mark.filterwarnings("ignore::telefid.fidelity.SubclassicalFidelityWarning")
    def test_mean_and_deviation(self, fam, dist):
        n = 2 * 10 ** 5
        rep = simulate_qubit(fam, dist, n, seed=21)
        closed = fidelity_stats(fam, dist)
        assert _z_score(rep.mean, closed.mean, rep.mean_std_error) < 4.0
        assert _z_score(rep.deviation, closed.deviation,
                        rep.deviation_std_error) < 4.0

    def test_near_maximal_narrow_cap(self):
        # deviation 3.6e-9 against a mean of ~1: raw power sums cancel here
        fam, dist = PureSchmidt.from_concurrence(0.99999), PolarCap(0.05)
        rep = simulate_qubit(fam, dist, 4 * 10 ** 5, seed=0)
        closed = fidelity_stats(fam, dist)
        assert rep.deviation_std_error > 0.0
        assert _z_score(rep.mean, closed.mean, rep.mean_std_error) < 4.0
        assert _z_score(rep.deviation, closed.deviation,
                        rep.deviation_std_error) < 4.0

    def test_report_fields_are_python_floats(self):
        rep = simulate_qubit(Werner(0.8), PolarCap(1.0), 1000, seed=2)
        fields = (rep.mean, rep.deviation, rep.mean_std_error,
                  rep.deviation_std_error) + rep.outcome_frequencies
        assert all(type(v) is float for v in fields)

    def test_werner_deviation_is_flat(self):
        rep = simulate_qubit(Werner(0.8), PolarCap(1.0), 10 ** 5, seed=2)
        closed = fidelity_stats(Werner(0.8), PolarCap(1.0))
        # per-input fidelity is constant, so only fp noise remains
        assert abs(rep.mean - closed.mean) < 1e-12
        assert rep.deviation < 1e-6

    def test_outcome_frequencies(self):
        alpha = 0.2
        n = 10 ** 5
        rep = simulate_qubit(PureSchmidt(alpha), PolarCap(1.0), n, seed=17)
        expected = bell_probabilities_averaged(alpha, PolarCap(1.0)).as_tuple()
        for f_hat, p in zip(rep.outcome_frequencies, expected):
            se = math.sqrt(p * (1 - p) / n)
            assert abs(f_hat - p) < 4.0 * se
        assert math.isclose(sum(rep.outcome_frequencies), 1.0, abs_tol=1e-12)


class TestClassicalSim:
    @pytest.mark.parametrize("dist", [Uniform(), PolarCap(0.8),
                                      VonMisesFisher(4.0)])
    def test_matches_benchmark(self, dist):
        rep = simulate_classical(dist, 10 ** 5, seed=5)
        assert _z_score(rep.mean, classical_fidelity(dist),
                        rep.mean_std_error) < 4.0

    def test_two_outcomes(self):
        rep = simulate_classical(VonMisesFisher(10.0), 10 ** 4, seed=1)
        assert len(rep.outcome_frequencies) == 2
        # concentrated near the pole, the +z result dominates
        assert rep.outcome_frequencies[0] > 0.9


class TestQutritSim:
    def test_matches_exact_average(self):
        shared = QutritSharedState(0.5, 0.3)
        theta4 = math.pi / 4
        rep = simulate_qutrit(shared, theta4, 10 ** 5, seed=11)
        exact = qutrit_average_fidelity(shared, theta4).estimate
        assert _z_score(rep.mean, exact, rep.mean_std_error) < 4.0
        assert len(rep.outcome_frequencies) == 9

    def test_determinism(self):
        shared = QutritSharedState(0.6, 0.2)
        r1 = simulate_qutrit(shared, 1.0, 20000, seed=8)
        r2 = simulate_qutrit(shared, 1.0, 20000, seed=8)
        assert r1 == r2


class TestRunRecords:
    def test_qubit_run_invariants(self):
        runs = qubit_runs(PureSchmidt(0.3), PolarCap(1.2), 500, seed=13)
        assert len(runs) == 500
        for run in runs:
            assert 0 <= run.bell_outcome < 4
            assert -1e-12 <= run.output_fidelity <= 1.0 + 1e-12
            assert run.input_direction.theta <= 1.2 + 1e-12

    def test_qutrit_run_invariants(self):
        shared = QutritSharedState(0.5, 0.25)
        runs = qutrit_runs(shared, math.pi / 3, 300, seed=4)
        for run in runs:
            assert 0 <= run.bell_outcome < 9
            assert -1e-12 <= run.output_fidelity <= 1.0 + 1e-12
            norm = sum(abs(a) ** 2 for a in run.input_amplitudes)
            assert abs(norm - 1.0) < 1e-12

    def test_maximal_qutrit_resource_always_perfect(self):
        shared = QutritSharedState(1 / 3, 1 / 3)
        runs = qutrit_runs(shared, math.pi, 200, seed=6)
        for run in runs:
            assert abs(run.output_fidelity - 1.0) < 1e-12


class TestValidation:
    def test_sample_count(self):
        with pytest.raises(ValueError):
            simulate_qubit(Werner(0.5), Uniform(), 0)
        with pytest.raises(ValueError):
            simulate_classical(Uniform(), -3)


_PROTOCOLS = {
    "qubit": _qubit_protocol(BellDiagonal((0.4, 0.3, 0.2, 0.1)), VonMisesFisher(2.0)),
    "qutrit": _qutrit_protocol(QutritSharedState(0.5, 0.3), 1.0),
    "classical": _classical_protocol(PolarCap(1.2)),
}


class TestBlockedProduct:
    """Column blocks give the bits of the single product, at every block edge."""

    @pytest.mark.parametrize("columns", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                         _CHUNK + _BLOCK + 1])
    @pytest.mark.parametrize("name", sorted(_PROTOCOLS))
    def test_matches_single_product(self, name, columns):
        protocol = _PROTOCOLS[name]
        a = protocol.coords(columns, np.random.default_rng(columns))[1]
        stacked = np.concatenate((protocol.forms.sum(axis=0), protocol.outcomes))
        for form in (stacked, protocol.outcomes):
            assert np.array_equal(_matmul(form, a), form @ a)


def _close_report(got, want):
    # vectorised trig may differ in the last bit between CPUs; the draws
    # themselves, hence the outcome counts, must not
    assert (got.n_samples, got.seed, got.outcome_frequencies) == \
        (want.n_samples, want.seed, want.outcome_frequencies)
    for field in ("mean", "deviation", "mean_std_error", "deviation_std_error"):
        assert math.isclose(getattr(got, field), getattr(want, field), rel_tol=1e-12)


class TestSeededStreams:
    """Seeded outputs at one chunk plus a block edge and at two uneven chunks."""

    STORED = {
        4097: (
            (0.6902632400647194, 0.010041569915280428, 0.00015688038065787192,
             0.00023425679866958542, (0.24847449353185258, 0.2638515987307786,
                                      0.23675860385648034, 0.25091530388088845)),
            (0.6375792803084177, 0.13095165525487545, 0.0020458698886218485,
             0.0014054772354013705, (0.5372223578227971, 0.46277764217720285)),
            (0.9779130725002515, 0.00660999522952563, 0.00010326857020401862,
             7.249640426529219e-05, (0.09323895533317061, 0.08689284842567732,
                                     0.08347571393702709, 0.10178179155479619,
                                     0.10275811569441054, 0.11105687088113253,
                                     0.14156700024408103, 0.14449597266292408,
                                     0.13473273126678056)),
            ([557, 582, 1419, 1539], 3938.1506035945586),
            ([389, 382, 363, 453, 437, 447, 544, 555, 527], 3987.528500990255),
        ),
        200000: (
            (0.690375832357151, 0.009817068353943983, 2.1951632179180712e-05,
             3.17579578904114e-05, (0.249595, 0.25014, 0.25035, 0.249915)),
            (0.639685887494574, 0.13152240216091848, 0.00029409303179587896,
             0.00019816023219275045, (0.548, 0.452)),
            (0.9779681698823701, 0.00666821676567331, 1.4910585976749307e-05,
             1.0548315225813737e-05, (0.086405, 0.086, 0.086555, 0.104505, 0.10576,
                                      0.105285, 0.142635, 0.14087, 0.141985)),
            ([26934, 27113, 73251, 72702], 192210.3633698258),
            ([19773, 19764, 19820, 21374, 21558, 21731, 25344, 25212, 25424],
             194659.05876659718),
        ),
    }

    @pytest.mark.parametrize("n", sorted(STORED))
    def test_match_stored(self, n):
        qubit, classical, qutrit, qubit_shots, qutrit_shots = self.STORED[n]
        shared = QutritSharedState(0.5, 0.3)
        for got, (seed, want) in zip(
                (simulate_qubit(BellDiagonal((0.4, 0.3, 0.2, 0.1)), VonMisesFisher(30.0),
                                n, seed=5),
                 simulate_classical(PolarCap(2.5), n, seed=6),
                 simulate_qutrit(shared, 0.8, n, seed=7)),
                ((5, qubit), (6, classical), (7, qutrit))):
            _close_report(got, SimReport(*want[:4], want[4], n, seed))
        for runs, (counts, fidelity_sum) in (
                (qubit_runs(PureSchmidt(0.2), PolarCap(1.0), n, seed=8), qubit_shots),
                (qutrit_runs(shared, 1.1, n, seed=9), qutrit_shots)):
            assert np.bincount([r.bell_outcome for r in runs]).tolist() == counts
            assert math.isclose(math.fsum(r.output_fidelity for r in runs), fidelity_sum,
                                rel_tol=1e-12)


class TestGaussLegendreCache:
    def test_read_only_and_shared(self):
        x, w = verify._leggauss(48)
        assert verify._leggauss(48)[0] is x
        assert not (x.flags.writeable or w.flags.writeable)
        with pytest.raises(ValueError):
            w[0] = 0.0

    @pytest.mark.parametrize("order", [1, 2, 48, 96, 160])
    def test_matches_numpy(self, order):
        # numpy's own weights are the less accurate ones near the ends (1.5e-11
        # relative at order 160 against 50-digit values, these 1.9e-13), so
        # the weights match loosely and the exactness of the rule is pinned
        x, w = verify._leggauss(order)
        ref_x, ref_w = np.polynomial.legendre.leggauss(order)
        assert np.abs(x - ref_x).max() <= 2.3e-16
        assert np.abs(w / ref_w - 1.0).max() <= 5e-11
        for j in range(order):
            assert abs(np.sum(w * x ** (2 * j)) - 2.0 / (2 * j + 1)) <= 1e-15, j


_BUDGET_SCRIPT = """
import time
from telefid.core import BellDiagonal, VonMisesFisher
from telefid.sim import simulate_qubit
args = (BellDiagonal((0.4, 0.3, 0.2, 0.1)), VonMisesFisher(30.0), 1 << 17)
simulate_qubit(*args)
wall, cpu = time.perf_counter(), time.process_time()
for seed in range(5):
    simulate_qubit(*args, seed=seed)
print(time.perf_counter() - wall, time.process_time() - cpu)
"""


@pytest.mark.skipif(os.cpu_count() == 1, reason="one core: no BLAS thread can spin")
def test_default_settings_keep_cpu_near_wall():
    # a BLAS thread left spinning after a product shows as CPU time above wall time
    env = {k: v for k, v in os.environ.items()
           if k not in ("TELEFID_THREADS", "OPENBLAS_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(sim.__file__))] + sys.path)
    out = subprocess.run([sys.executable, "-c", _BUDGET_SCRIPT], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    wall, cpu = map(float, out.split())
    assert cpu <= 1.3 * wall, f"cpu {cpu:.3f} s against wall {wall:.3f} s"
