import math

import pytest

from telefid.core import (BellDiagonal, BlochDirection, CorrelationTensor,
                          FidelityStats, PolarCap, PureSchmidt, Uniform,
                          VonMisesFisher, Werner, concurrence,
                          correlation_tensor)


class TestCorrelationTensor:
    def test_as_tuple(self):
        t = CorrelationTensor(-0.3, 0.2, -1.0)
        assert t.as_tuple() == (-0.3, 0.2, -1.0)

    @pytest.mark.parametrize("bad", [1.1, -1.5, float("nan"), float("inf")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            CorrelationTensor(bad, 0.0, 0.0)

    def test_tolerates_rounding_slop(self):
        CorrelationTensor(1.0 + 1e-10, -1.0 - 1e-10, 0.0)

    def test_frozen(self):
        t = CorrelationTensor(0.1, 0.2, 0.3)
        with pytest.raises(AttributeError):
            t.t1 = 0.5

    def test_correlation_tensor_of_bare_tensor(self):
        t = CorrelationTensor(-0.3, 0.2, -1.0)
        assert correlation_tensor(t) == t


class TestBlochDirection:
    def test_unit_vector_is_unit(self):
        n = BlochDirection(1.1, 2.3).unit_vector()
        assert math.isclose(sum(x * x for x in n), 1.0, rel_tol=1e-15)

    def test_poles(self):
        assert BlochDirection(0.0, 0.0).unit_vector()[2] == 1.0
        assert BlochDirection(math.pi, 0.7).unit_vector()[2] == -1.0

    @pytest.mark.parametrize("theta", [-0.1, math.pi + 0.1])
    def test_theta_range(self, theta):
        with pytest.raises(ValueError):
            BlochDirection(theta, 0.0)


class TestDistributionTypes:
    @pytest.mark.parametrize("theta0", [0.0, -1.0, math.pi + 1e-6])
    def test_cap_range(self, theta0):
        with pytest.raises(ValueError):
            PolarCap(theta0)

    def test_cap_accepts_full_sphere(self):
        PolarCap(math.pi)

    @pytest.mark.parametrize("kappa", [-0.5, float("inf"), float("nan")])
    def test_vmf_range(self, kappa):
        with pytest.raises(ValueError):
            VonMisesFisher(kappa)

    def test_vmf_zero_is_legal(self):
        VonMisesFisher(0.0)

    def test_uniform_is_singleton_like(self):
        assert Uniform() == Uniform()


class TestFamilies:
    def test_pure_alpha_range(self):
        with pytest.raises(ValueError):
            PureSchmidt(0.51)
        with pytest.raises(ValueError):
            PureSchmidt(-0.01)

    @pytest.mark.parametrize("c", [0.0, 0.25, 0.5, 0.8, 1.0])
    def test_from_concurrence_roundtrip(self, c):
        fam = PureSchmidt.from_concurrence(c)
        assert math.isclose(concurrence(fam), c, abs_tol=1e-14)

    def test_werner_range(self):
        with pytest.raises(ValueError):
            Werner(1.2)
        with pytest.raises(ValueError):
            Werner(-0.1)

    def test_bd_validation(self):
        with pytest.raises(ValueError):
            BellDiagonal((0.5, 0.5, 0.5, -0.5))
        with pytest.raises(ValueError):
            BellDiagonal((0.3, 0.3, 0.3, 0.3))
        with pytest.raises(ValueError):
            BellDiagonal((0.5, 0.5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_bd_rejects_non_finite(self, bad):
        # max(0.0, nan) is 0.0 and every range check on nan is False
        with pytest.raises(ValueError, match="not finite"):
            BellDiagonal((bad, 0.5, 0.25, 0.25))

    def test_bd_sorts_weights(self):
        fam = BellDiagonal((0.1, 0.4, 0.3, 0.2))
        assert fam.weights == (0.4, 0.3, 0.2, 0.1)

    def test_bd_rank3(self):
        fam = BellDiagonal.rank3(0.5, 0.3)
        assert fam.weights[3] == 0.0
        assert math.isclose(sum(fam.weights), 1.0, abs_tol=1e-12)


class TestConcurrence:
    @pytest.mark.parametrize("p,expected", [
        (0.0, 0.0), (1.0 / 3.0, 0.0), (0.5, 0.25), (1.0, 1.0),
    ])
    def test_werner(self, p, expected):
        assert math.isclose(concurrence(Werner(p)), expected, abs_tol=1e-12)

    def test_pure(self):
        assert concurrence(PureSchmidt(0.5)) == 1.0
        assert concurrence(PureSchmidt(0.0)) == 0.0

    def test_bd(self):
        assert math.isclose(concurrence(BellDiagonal((0.7, 0.1, 0.1, 0.1))),
                            0.4, abs_tol=1e-12)
        assert concurrence(BellDiagonal((0.25, 0.25, 0.25, 0.25))) == 0.0


class TestCorrelationTensorOf:
    @pytest.mark.parametrize("c", [0.0, 0.3, 1.0])
    def test_pure(self, c):
        t = correlation_tensor(PureSchmidt.from_concurrence(c)).as_tuple()
        assert math.isclose(t[0], -c, abs_tol=1e-14)
        assert math.isclose(t[1], -c, abs_tol=1e-14)
        assert t[2] == -1.0

    def test_werner_is_isotropic(self):
        t = correlation_tensor(Werner(0.6)).as_tuple()
        assert t == (-0.6, -0.6, -0.6)

    def test_rank3_slice(self):
        # weights (p, q, 1-p-q, 0) give tensor -(2p-1, 1-2q, 2(p+q)-1)
        p, q = 0.5, 0.3
        t = correlation_tensor(BellDiagonal.rank3(p, q)).as_tuple()
        assert math.isclose(t[0], -(2 * p - 1), abs_tol=1e-12)
        assert math.isclose(t[1], -(1 - 2 * q), abs_tol=1e-12)
        assert math.isclose(t[2], -(2 * (p + q) - 1), abs_tol=1e-12)


class TestFidelityStats:
    def test_from_moments_clamps_tiny_negative_variance(self):
        st = FidelityStats.from_moments(0.9, 0.9 * 0.9 - 1e-13)
        assert st.deviation == 0.0

    def test_deviation(self):
        st = FidelityStats.from_moments(0.5, 0.26)
        assert math.isclose(st.deviation, 0.1, rel_tol=1e-12)
