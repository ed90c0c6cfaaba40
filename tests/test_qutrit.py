import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from telefid import qutrit
from telefid.qutrit import (_THETA4_FLOOR, QutritInput, QutritSharedState,
                            dimensional_advantage, participation_moment,
                            qutrit_average_fidelity, qutrit_classical_fidelity,
                            qutrit_pointwise_fidelity,
                            qutrit_prior_information,
                            theta4_for_fractional_info)
from telefid.sim import simulate_qutrit

SQ3 = 1.0 / math.sqrt(3.0)


class TestTypes:
    def test_shared_state_validation(self):
        with pytest.raises(ValueError):
            QutritSharedState(-0.1, 0.5)
        with pytest.raises(ValueError):
            QutritSharedState(0.7, 0.5)

    @pytest.mark.parametrize("a,b", [(math.nan, 0.2), (0.2, math.nan), (-math.inf, 0.2)])
    def test_shared_state_rejects_non_finite(self, a, b):
        with pytest.raises(ValueError, match="not finite"):
            QutritSharedState(a, b)

    def test_weights_clamp(self):
        w = QutritSharedState(0.6, 0.4).weights()
        assert w[2] == 0.0
        assert min(w) >= 0.0

    def test_input_norm_check(self):
        with pytest.raises(ValueError):
            QutritInput(1.0, 0.1, 0.0)

    def test_from_array(self):
        inp = QutritInput.from_array([SQ3, SQ3, SQ3])
        assert math.isclose(abs(inp.x) ** 2, 1.0 / 3.0, rel_tol=1e-12)


class TestPointwise:
    def test_maximal_resource_is_perfect(self):
        shared = QutritSharedState(1 / 3, 1 / 3)
        for inp in (QutritInput(1.0, 0.0, 0.0),
                    QutritInput(SQ3, SQ3, SQ3),
                    QutritInput(0.6, 0.8j, 0.0)):
            assert abs(qutrit_pointwise_fidelity(shared, inp) - 1.0) < 1e-12

    def test_product_resource_on_basis_state(self):
        shared = QutritSharedState(1.0, 0.0)
        assert math.isclose(
            qutrit_pointwise_fidelity(shared, QutritInput(0.0, 1.0, 0.0)),
            1.0, abs_tol=1e-15)

    def test_product_resource_on_balanced_state(self):
        shared = QutritSharedState(1.0, 0.0)
        f = qutrit_pointwise_fidelity(shared, QutritInput(SQ3, SQ3, SQ3))
        assert math.isclose(f, 1.0 / 3.0, rel_tol=1e-12)


class TestParticipationMoment:
    @pytest.mark.parametrize("theta4,expected", [
        (0.5, 0.769099322650095772),
        (math.pi / 4, 0.580212999802439414),
        (math.pi / 2, 0.5),
        (math.pi, 0.5),
    ])
    def test_reference_values(self, theta4, expected):
        assert math.isclose(participation_moment(theta4), expected,
                            abs_tol=1e-13)

    def test_range_check(self):
        with pytest.raises(ValueError):
            participation_moment(0.0)
        with pytest.raises(ValueError):
            participation_moment(3.5)

    def test_monotone_on_invertible_branch(self):
        vals = [participation_moment(t) for t in (0.2, 0.6, 1.0, 1.4)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("theta4", [1e-3, 0.05, 0.2, 0.49, 0.5, 0.51, 0.8,
                                        1.2, 1.7, 2.2, 2.5, 3.0])
    def test_matches_quadrature(self, theta4):
        # the sin^4-marginal average by adaptive quadrature, term by term
        def num_integrand(th):
            s2 = math.sin(th) ** 2
            c2 = 1.0 - s2
            return ((19.0 / 35.0) * s2 * s2 + 0.4 * s2 * c2 + c2 * c2) * s2 * s2

        num = quad(num_integrand, 0.0, theta4, epsabs=0.0, epsrel=1e-12, limit=200)[0]
        den = quad(lambda th: math.sin(th) ** 4, 0.0, theta4,
                   epsabs=0.0, epsrel=1e-12, limit=200)[0]
        assert math.isclose(participation_moment(theta4), num / den, abs_tol=1e-13)

    @pytest.mark.parametrize("theta4", [5e-324, 1e-300, 1e-70, 1e-63, 1e-9])
    def test_tiny_cutoff_limit(self, theta4):
        # <P4> = 1 - (8/7) theta^2 + ..., which is 1.0 in double here
        assert participation_moment(theta4) == 1.0
        assert qutrit_prior_information(theta4).fractional == 1.0


class TestAverageFidelity:
    def test_exact_vs_mc(self):
        shared = QutritSharedState(0.5, 0.3)
        exact = qutrit_average_fidelity(shared, math.pi / 4).estimate
        mc = qutrit_average_fidelity(shared, math.pi / 4, method="mc",
                                     n_samples=10 ** 5, seed=2)
        assert mc.std_error > 0.0
        assert abs(mc.estimate - exact) < 4.0 * mc.std_error

    def test_exact_report_shape(self):
        rep = qutrit_average_fidelity(QutritSharedState(0.4, 0.3), 1.0)
        assert rep.std_error == 0.0
        assert rep.n_samples == 0

    def test_bad_method(self):
        with pytest.raises(ValueError):
            qutrit_average_fidelity(QutritSharedState(0.5, 0.3), 1.0,
                                    method="bootstrap")

    def test_maximal_resource_exact_one(self):
        rep = qutrit_average_fidelity(QutritSharedState(1 / 3, 1 / 3), 0.7)
        assert abs(rep.estimate - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [1 << 17, 3 * 10 ** 5])
    def test_mc_is_simulate_qutrit(self, n):
        shared = QutritSharedState(0.6, 0.1)
        rep = qutrit_average_fidelity(shared, 0.9, method="mc", n_samples=n, seed=6)
        sim = simulate_qutrit(shared, 0.9, n, seed=6)
        assert (rep.estimate, rep.std_error) == (sim.mean, sim.mean_std_error)
        assert (rep.n_samples, rep.seed) == (n, 6)

    def test_mc_memory_is_bounded(self):
        tracemalloc.start()
        try:
            qutrit_average_fidelity(QutritSharedState(0.5, 0.3), math.pi / 4,
                                    method="mc", n_samples=10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2 ** 20


class TestClassicalFidelity:
    def test_haar_limit(self):
        assert math.isclose(qutrit_classical_fidelity(math.pi).estimate, 0.5,
                            abs_tol=1e-13)

    def test_mc_agreement(self):
        rep = qutrit_classical_fidelity(math.pi, method="mc",
                                        n_samples=10 ** 5, seed=4)
        assert abs(rep.estimate - 0.5) < 4.0 * rep.std_error


class TestInformation:
    def test_quarter_pi_reference(self):
        info = qutrit_prior_information(math.pi / 4)
        assert math.isclose(info.fractional, 0.160425999604878827,
                            abs_tol=1e-12)

    def test_inversion_roundtrip(self):
        for target in (0.05, 0.16, 0.5):
            theta4 = theta4_for_fractional_info(target)
            back = qutrit_prior_information(theta4).fractional
            assert math.isclose(back, target, abs_tol=1e-10)

    def test_zero_target_is_half_pi(self):
        assert theta4_for_fractional_info(0.0) == math.pi / 2

    def test_information_is_not_monotone(self):
        # I_f crosses 0 at 0.991155 and is negative beyond it up to pi/2, so
        # a small positive target maps below the crossing
        assert qutrit_prior_information(1.21).fractional < 0.0
        assert abs(theta4_for_fractional_info(1e-6) - 0.991155) < 1e-4

    def test_bracket_has_one_sign_change_for_positive_targets(self):
        # I_f falls strictly from the bracket's lower end to its minimum near
        # 1.2109, then rises to exactly 0 at pi/2: for every target > 0,
        # I_f - target is positive below its root and negative from there to
        # pi/2, although I_f turns inside the bracket
        t = np.linspace(_THETA4_FLOOR, math.pi / 2, 20001)
        i_f = np.array([2.0 * participation_moment(x) - 1.0 for x in t])
        turn = int(np.argmin(i_f))
        assert abs(t[turn] - 1.2109) < 1e-3
        assert np.all(np.diff(i_f[:turn + 1]) < 0.0)
        assert np.all(i_f[turn:] <= 0.0) and i_f[-1] == 0.0

    def test_range_check(self):
        with pytest.raises(ValueError):
            theta4_for_fractional_info(-0.1)
        with pytest.raises(ValueError):
            theta4_for_fractional_info(1.0)


class TestDimensionalAdvantage:
    def test_qutrit_validates_without_root_find(self, monkeypatch):
        def no_root_find(target):
            raise AssertionError("theta4_for_fractional_info called")
        monkeypatch.setattr(qutrit, "theta4_for_fractional_info", no_root_find)
        rep = dimensional_advantage(3, 0.16, ensemble_size=100, seed=0)
        assert 0.0 < rep.estimate < 100.0

    @pytest.mark.parametrize("target,message", [
        (0.9999999, r"^target 0\.9999999 above 0\.999997714, the largest invertible "
                    r"with theta4_max >= 0\.001$"),
        (-0.1, r"^fractional information target -0\.1 outside \[0, 1\)$"),
    ])
    def test_qutrit_range_message(self, target, message):
        with pytest.raises(ValueError, match=message) as by_eta:
            dimensional_advantage(3, target, ensemble_size=10)
        with pytest.raises(ValueError) as by_cutoff:
            theta4_for_fractional_info(target)
        assert str(by_eta.value) == str(by_cutoff.value)

    def test_qubit_band(self):
        rep = dimensional_advantage(2, 0.16, ensemble_size=4000, seed=1)
        assert 20.0 < rep.estimate < 26.0
        assert rep.std_error > 0.0

    def test_qutrit_band(self):
        rep = dimensional_advantage(3, 0.16, ensemble_size=4000,
                                    n_samples=4 * 10 ** 4, seed=1)
        assert 51.0 < rep.estimate < 63.0

    def test_qutrit_beats_qubit(self):
        q2 = dimensional_advantage(2, 0.16, ensemble_size=3000, seed=5)
        q3 = dimensional_advantage(3, 0.16, ensemble_size=3000,
                                   n_samples=3 * 10 ** 4, seed=5)
        assert q3.estimate > q2.estimate + 10.0

    def test_maximal_qubit_closed_form(self):
        rep = dimensional_advantage(2, 0.16, ensemble_size=100, seed=0,
                                    convention="maximal")
        fcl = (2.0 / 3.0) * 1.16
        assert math.isclose(rep.estimate, 100.0 * (1.0 - fcl) / fcl,
                            rel_tol=1e-12)
        assert rep.std_error == 0.0

    def test_maximal_qutrit_closed_form(self):
        rep = dimensional_advantage(3, 0.16, ensemble_size=100, seed=0,
                                    convention="maximal")
        m = 0.5 * 1.16
        assert math.isclose(rep.estimate, 100.0 * (1.0 - m) / m, rel_tol=1e-12)
        assert rep.std_error == 0.0

    @pytest.mark.parametrize("convention", ["uniform", "haar", "maximal"])
    def test_conventions_run(self, convention):
        rep = dimensional_advantage(3, 0.1, ensemble_size=500,
                                    n_samples=10 ** 4, seed=3,
                                    convention=convention)
        assert 0.0 < rep.estimate < 100.0

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            dimensional_advantage(4, 0.16)

    def test_bad_convention(self):
        with pytest.raises(ValueError):
            dimensional_advantage(2, 0.16, ensemble_size=10,
                                  convention="peres")
