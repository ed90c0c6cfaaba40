import math

import pytest

from telefid.core import (BellDiagonal, BlochDirection, CorrelationTensor,
                          PolarCap, PureSchmidt, Uniform, VonMisesFisher,
                          Werner)
from telefid.fidelity import (UNIFORM_CLASSICAL_FIDELITY,
                              SubclassicalFidelityWarning, average_fidelity,
                              bd_rank3_threshold, classical_fidelity,
                              fidelity_second_moment, fidelity_stats,
                              is_nonclassical, pointwise_fidelity,
                              prior_information, werner_threshold)

INV_3SQRT5 = 1.0 / (3.0 * math.sqrt(5.0))


class TestPointwise:
    def test_pole_hits_t3(self):
        t = CorrelationTensor(-0.2, -0.5, -0.8)
        f = pointwise_fidelity(t, BlochDirection(0.0, 0.0))
        assert math.isclose(f, (1 + 0.8) / 2, abs_tol=1e-15)

    def test_equator_mixes_t1_t2(self):
        t = CorrelationTensor(-0.2, -0.5, -0.8)
        fx = pointwise_fidelity(t, BlochDirection(math.pi / 2, 0.0))
        fy = pointwise_fidelity(t, BlochDirection(math.pi / 2, math.pi / 2))
        assert math.isclose(fx, (1 + 0.2) / 2, abs_tol=1e-15)
        assert math.isclose(fy, (1 + 0.5) / 2, abs_tol=1e-15)

    def test_accepts_family(self):
        f = pointwise_fidelity(PureSchmidt.from_concurrence(1.0),
                               BlochDirection(1.0, 2.0))
        assert math.isclose(f, 1.0, abs_tol=1e-15)


class TestClassicalFidelity:
    def test_uniform(self):
        assert math.isclose(classical_fidelity(Uniform()),
                            UNIFORM_CLASSICAL_FIDELITY, abs_tol=1e-16)

    def test_cap_third(self):
        assert math.isclose(classical_fidelity(PolarCap(math.pi / 3)),
                            19.0 / 24.0, abs_tol=1e-15)

    def test_vmf_ten(self):
        assert math.isclose(classical_fidelity(VonMisesFisher(10.0)),
                            0.909999999587769275, rel_tol=1e-12)


class TestAverageFidelity:
    @pytest.mark.parametrize("c", [0.0, 0.3, 0.7, 1.0])
    def test_pure_uniform(self, c):
        fam = PureSchmidt.from_concurrence(c)
        f = average_fidelity(fam, Uniform())
        assert math.isclose(f, (2 + c) / 3, abs_tol=1e-14)

    @pytest.mark.parametrize("c", [0.0, 0.4, 1.0])
    def test_pure_cap_closed_form(self, c):
        cap = PolarCap(1.3)
        m2 = 0.0
        import telefid.distributions as dmod
        m2 = dmod.cos_moments(cap)[2]
        fam = PureSchmidt.from_concurrence(c)
        expected = 0.5 * (1 + m2 + c * (1 - m2))
        assert math.isclose(average_fidelity(fam, cap), expected,
                            abs_tol=1e-14)

    @pytest.mark.parametrize("dist", [Uniform(), PolarCap(0.9),
                                      VonMisesFisher(3.0)])
    def test_werner_distribution_independent(self, dist):
        f = average_fidelity(Werner(0.8), dist)
        assert f == (1 + 0.8) / 2

    def test_accepts_raw_tensor(self):
        t = CorrelationTensor(-0.5, -0.5, -0.5)
        assert average_fidelity(t, PolarCap(2.0)) == 0.75


class TestSecondMomentAndStats:
    @pytest.mark.parametrize("c", [0.0, 0.5, 1.0])
    def test_pure_uniform_deviation(self, c):
        st = fidelity_stats(PureSchmidt.from_concurrence(c), Uniform())
        assert math.isclose(st.deviation, (1 - c) * INV_3SQRT5, abs_tol=1e-14)

    @pytest.mark.filterwarnings("ignore::telefid.fidelity.SubclassicalFidelityWarning")
    def test_second_equals_mean_sq_plus_var(self):
        fam = BellDiagonal((0.55, 0.25, 0.15, 0.05))
        dist = VonMisesFisher(2.5)
        st = fidelity_stats(fam, dist)
        s2 = fidelity_second_moment(fam, dist)
        assert math.isclose(s2, st.mean ** 2 + st.deviation ** 2,
                            rel_tol=1e-12)
        assert math.isclose(s2, st.second_moment, rel_tol=1e-15)

    @pytest.mark.filterwarnings("ignore::telefid.fidelity.SubclassicalFidelityWarning")
    def test_werner_deviation_zero_everywhere(self):
        for dist in (Uniform(), PolarCap(0.4), VonMisesFisher(17.0)):
            st = fidelity_stats(Werner(0.31), dist)
            assert st.deviation == 0.0
            assert st.second_moment == st.mean ** 2


class TestSubclassicalWarning:
    def test_weak_state_on_narrow_cap_warns(self):
        with pytest.warns(SubclassicalFidelityWarning):
            average_fidelity(Werner(0.4), PolarCap(0.3))

    def test_strong_state_is_silent(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            average_fidelity(PureSchmidt.from_concurrence(0.9), PolarCap(0.3))


class TestFidelityStatsSingleEvaluation:
    def test_tensor_and_moments_once_per_call(self, monkeypatch):
        import telefid.fidelity as fid
        calls = {}

        def counted(name):
            inner = getattr(fid, name)

            def wrapper(*args):
                calls[name] = calls.get(name, 0) + 1
                return inner(*args)
            monkeypatch.setattr(fid, name, wrapper)

        counted("cos_moments")
        counted("correlation_tensor")
        with pytest.warns(SubclassicalFidelityWarning) as record:
            fidelity_stats(BellDiagonal((0.4, 0.3, 0.2, 0.1)), PolarCap(0.5))
        assert calls == {"cos_moments": 1, "correlation_tensor": 1}
        assert len(record) == 1


class TestInformation:
    def test_cap_third(self):
        info = prior_information(PolarCap(math.pi / 3))
        assert math.isclose(info.absolute, 0.125, abs_tol=1e-15)
        assert math.isclose(info.fractional, 0.1875, abs_tol=1e-15)

    def test_point_cap_saturates(self):
        info = prior_information(PolarCap(1e-6))
        assert math.isclose(info.absolute, 1.0 / 3.0, abs_tol=1e-10)
        assert math.isclose(info.fractional, 0.5, abs_tol=1e-10)

    def test_uniform_is_zero(self):
        info = prior_information(Uniform())
        assert info.absolute == 0.0
        assert info.fractional == 0.0


class TestThresholds:
    def test_werner_uniform(self):
        assert math.isclose(werner_threshold(Uniform()), 1.0 / 3.0,
                            abs_tol=1e-15)

    def test_werner_cap_third(self):
        assert math.isclose(werner_threshold(PolarCap(math.pi / 3)),
                            7.0 / 12.0, abs_tol=1e-15)

    def test_werner_vmf_five(self):
        # matches 2 * classical_fidelity - 1
        expected = 0.67996367840719225
        assert math.isclose(werner_threshold(VonMisesFisher(5.0)), expected,
                            rel_tol=1e-12)

    def test_bd_rank3_cap_third(self):
        assert math.isclose(bd_rank3_threshold(PolarCap(math.pi / 3)),
                            19.0 / 29.0, abs_tol=1e-14)

    @pytest.mark.parametrize("dist", [Uniform(), VonMisesFisher(2.0)])
    def test_bd_rank3_rejects_non_cap(self, dist):
        with pytest.raises(TypeError):
            bd_rank3_threshold(dist)

    def test_is_nonclassical_strict(self):
        cap = PolarCap(math.pi / 3)
        benchmark = classical_fidelity(cap)
        assert not is_nonclassical(benchmark, cap)
        assert is_nonclassical(benchmark + 1e-9, cap)
        strong = average_fidelity(PureSchmidt.from_concurrence(0.95), cap)
        assert is_nonclassical(strong, cap)
