import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from telefid import distributions
from telefid.core import PolarCap, Uniform, VonMisesFisher, BlochDirection
from telefid.distributions import (_NEWTON_STEPS, _SPREAD_CUT, _invert_sin4_antideriv,
                                   _sin4_antideriv, cos_moments, density, mean_polar_angle,
                                   sample_directions, sample_qutrit_inputs,
                                   spread_moments)
from telefid.qutrit import participation_moment

# Reference moments computed with 50-digit arithmetic, then rounded.
VMF_MOMENTS = {
    0.0001: (0.0000333333333111111111, 0.333333333777777777,
             0.0000199999999904761905, 0.200000000380952381),
    0.01: (0.00333331111132274921, 0.333337777735450159,
           0.00199999047627513144, 0.200003809489947423),
    0.15: (0.0499251603534985379, 0.334331195286686161,
           0.0299679212864419899, 0.200855432361546936),
    0.3: (0.0994050969884082561, 0.337299353410611626,
          0.0597448962156253311, 0.203401383791662252),
    0.7: (0.226050207231200833, 0.354142265053711905,
          0.136869071286721241, 0.217891021218735767),
    2.0: (0.537314720727548096, 0.462685279272451904,
          0.34328680181887024, 0.313426396362259521),
    5.0: (0.800090803982019376, 0.67996367840719225,
          0.592112596937704026, 0.526309922449836779),
    10.0: (0.900000004122307253, 0.819999999175538549,
           0.754000004369645689, 0.698399998252141725),
    50.0: (0.98, 0.9608, 0.942352, 0.92461184),
    300.0: (0.996666666666666667, 0.993355555555555556,
            0.990066444444444444, 0.986799114074074074),
    1000.0: (0.999, 0.998002, 0.997005994, 0.996011976024),
}


class TestCosMoments:
    @pytest.mark.parametrize("kappa", sorted(VMF_MOMENTS))
    def test_vmf_against_reference(self, kappa):
        m = cos_moments(VonMisesFisher(kappa))
        for k, expected in enumerate(VMF_MOMENTS[kappa], start=1):
            assert math.isclose(m[k], expected, rel_tol=1e-12), (kappa, k)

    def test_cap_closed_forms(self):
        m = cos_moments(PolarCap(math.pi / 3))
        assert math.isclose(m[1], 0.75, abs_tol=1e-15)
        assert math.isclose(m[2], 7.0 / 12.0, abs_tol=1e-15)
        m = cos_moments(PolarCap(math.pi / 2))
        for k, expected in enumerate((0.5, 1 / 3, 0.25, 0.2), start=1):
            assert math.isclose(m[k], expected, abs_tol=1e-15)

    def test_full_cap_matches_uniform(self):
        full = cos_moments(PolarCap(math.pi))
        unif = cos_moments(Uniform())
        for k in range(1, 5):
            assert math.isclose(full[k], unif[k], abs_tol=1e-15)
        assert unif[1] == 0.0
        assert math.isclose(unif[2], 1 / 3, abs_tol=1e-16)
        assert math.isclose(unif[4], 0.2, abs_tol=1e-16)

    def test_vmf_zero_matches_uniform(self):
        # Uniform is the kappa = 0 vMF: every closed form and the seeded
        # sampler agree bit for bit
        vmf, unif = VonMisesFisher(0.0), Uniform()
        assert cos_moments(vmf) == cos_moments(unif)
        assert spread_moments(vmf) == spread_moments(unif)
        assert mean_polar_angle(vmf) == mean_polar_angle(unif)
        for th in np.linspace(0.0, math.pi, 50):
            d = BlochDirection(float(th), 0.3)
            assert density(vmf, d) == density(unif, d)
        assert np.array_equal(sample_directions(vmf, 1000, np.random.default_rng(3)),
                              sample_directions(unif, 1000, np.random.default_rng(3)))

    def test_zeroth_moment(self):
        assert cos_moments(Uniform())[0] == 1.0

    def test_narrow_cap_stays_finite(self):
        m = cos_moments(PolarCap(1e-7))
        assert 0.0 < 1.0 - m[1] < 1e-13
        assert m[4] <= m[3] <= m[2] <= m[1]


class TestSpreadMoments:
    def test_uniform_values(self):
        v2c, s4 = spread_moments(Uniform())
        assert math.isclose(v2c, 4.0 / 45.0, rel_tol=1e-14)
        assert math.isclose(s4, 8.0 / 15.0, rel_tol=1e-14)

    @pytest.mark.parametrize("dist", [PolarCap(2.0), VonMisesFisher(1.0),
                                      VonMisesFisher(30.0)])
    def test_consistency_with_raw_moments(self, dist):
        # v2c is the variance of cos^2 theta; s4 is <sin^4 theta>
        m = cos_moments(dist)
        v2c, s4 = spread_moments(dist)
        assert math.isclose(v2c, m[4] - m[2] ** 2, rel_tol=1e-10, abs_tol=1e-14)
        assert math.isclose(s4, 1 - 2 * m[2] + m[4], rel_tol=1e-10)

    def test_vmf_against_high_precision(self):
        # Var(cos^2 theta), <sin^4 theta> and <cos^k theta> (on (0, 10]) from
        # 50-digit quadrature of the vMF density, across the branch cut at 2
        mp = pytest.importorskip("mpmath")
        kappas = [*np.linspace(0.0, 10.0, 21), 1e-8, 0.2499, 0.2501, 0.3, 1.9999, 2.0001]
        with mp.workdps(50):
            for kappa in kappas:
                k = mp.mpf(float(kappa))
                z, *m, s4 = (mp.quad(lambda u, f=f: f(u) * mp.exp(k * (u - 1)), [-1, 1])
                             for f in (lambda u: 1, lambda u: u, lambda u: u ** 2,
                                       lambda u: u ** 3, lambda u: u ** 4,
                                       lambda u: (1 - u * u) ** 2))
                m = [mk / z for mk in m]
                want = ((m[3] - m[1] ** 2), s4 / z)
                got = spread_moments(VonMisesFisher(float(kappa)))
                for g, w in zip(got, want):
                    assert abs(g - w) <= 1e-14 * w, (kappa, g, float(w))
                if kappa > 0.0:
                    got = cos_moments(VonMisesFisher(float(kappa)))[1:]
                    for j, (g, w) in enumerate(zip(got, m), start=1):
                        assert abs(g - w) <= 1e-14 * w, (kappa, j, g, float(w))

    def test_spread_cut_seam_is_smooth(self):
        # vMF moments and spread statistics switch from the Legendre ratios to
        # the coth recursion at _SPREAD_CUT
        assert _SPREAD_CUT == 2.0
        below = spread_moments(VonMisesFisher(1.9999))
        above = spread_moments(VonMisesFisher(2.0001))
        assert abs(below[0] - above[0]) < 1e-6
        # a straddle is not a match; check each side against raw moments
        for kappa in (1.9999, 2.0001):
            m = cos_moments(VonMisesFisher(kappa))
            v2c, _ = spread_moments(VonMisesFisher(kappa))
            assert math.isclose(v2c, m[4] - m[2] ** 2, rel_tol=1e-10)


class TestMeanPolarAngle:
    @pytest.mark.parametrize("theta0,expected", [
        (0.5, 0.331931939489109756),
        (1.5, 0.959243376257214898),
        (math.pi, math.pi / 2),
    ])
    def test_cap(self, theta0, expected):
        assert math.isclose(mean_polar_angle(PolarCap(theta0)), expected,
                            rel_tol=1e-12)

    # pi (I0(kappa) - e^{-kappa}) / (2 sinh kappa) in 50-digit arithmetic,
    # on both sides of the series cut and far into the concentrated tail
    @pytest.mark.parametrize("kappa,expected", [
        (1e-8, 1.57079632286790580),
        (1e-3, 1.57040362773774159),
        (0.2499, 1.47304161629875430),
        (0.2501, 1.47296398789464625),
        (0.5, 1.37744407296612828),
        (0.9999, 1.20056604283517185),
        (1.0001, 1.20050019778820218),
        (2.0, 0.92867650666785195),
        (10.0, 0.401600267268949178),
        (100.0, 0.125488968558246353),
        (1e3, 0.0396382299248039054),
        (1e4, 0.0125332980462354501),
    ])
    def test_vmf(self, kappa, expected):
        assert math.isclose(mean_polar_angle(VonMisesFisher(kappa)), expected,
                            rel_tol=1e-14)

    def test_uniform(self):
        assert (mean_polar_angle(VonMisesFisher(0.0)) == mean_polar_angle(Uniform())
                == 0.5 * math.pi)

    def test_vmf_decreasing_and_finite(self):
        kappas = np.concatenate([[0.0, 5e-324, 1e-300], np.geomspace(1e-12, 1e4, 2000)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            angles = [mean_polar_angle(VonMisesFisher(float(k))) for k in kappas]
        assert angles[0] == 0.5 * math.pi
        assert all(0.0 < b <= a for a, b in zip(angles, angles[1:]))


def test_import_leaves_out_numerical_integration():
    # a fresh interpreter (other test modules import scipy themselves): the
    # library and one call of each CLI subcommand load no scipy module
    src = Path(__file__).resolve().parents[1] / "src"
    code = """if True:
        import os, sys, telefid
        from telefid import cli
        for argv in (["sweep", "--conc", "0.8", "--dist", "vmf", "--grid", "0:3:4"],
                     ["resources", "--dist", "cap", "--grid", "0.5:3:4", "--c-target", "0.8"],
                     ["compare", "--conc", "0.5", "--criterion", "mean-polar-angle",
                      "--grid", "0.5:1.5:3"],
                     ["compare", "--conc", "0.5", "--criterion", "classical-fidelity",
                      "--grid", "0.7:0.9:3"],
                     ["qutrit", "--points", "4"],
                     ["qutrit", "--eta", "--dim", "3", "--ensemble", "100"],
                     ["verify", "--quick"]):
            assert cli.main([*argv, "--out", os.devnull]) == 0, argv
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


class TestDensity:
    def test_cap_is_flat_inside_zero_outside(self):
        cap = PolarCap(1.0)
        inside = density(cap, BlochDirection(0.5, 0.0))
        inside2 = density(cap, BlochDirection(0.99, 2.0))
        outside = density(cap, BlochDirection(1.01, 0.0))
        assert inside == inside2
        assert outside == 0.0
        area = 2 * math.pi * (1 - math.cos(1.0))
        assert math.isclose(inside, 1.0 / area, rel_tol=1e-14)

    def test_vmf_ratio(self):
        kappa = 3.0
        d = VonMisesFisher(kappa)
        top = density(d, BlochDirection(0.0, 0.0))
        mid = density(d, BlochDirection(math.pi / 2, 1.0))
        assert math.isclose(top / mid, math.exp(kappa), rel_tol=1e-12)

    def test_uniform_density(self):
        assert math.isclose(density(Uniform(), BlochDirection(2.0, 0.3)),
                            1.0 / (4 * math.pi), rel_tol=1e-15)


class TestSamplers:
    def test_cap_support_and_mean(self):
        rng = np.random.default_rng(11)
        cap = PolarCap(1.2)
        pts = sample_directions(cap, 40000, rng)
        assert pts.shape == (40000, 2)
        assert np.all(pts[:, 0] <= 1.2 + 1e-12)
        m = cos_moments(cap)
        c = np.cos(pts[:, 0])
        z = (c.mean() - m[1]) / (c.std(ddof=1) / math.sqrt(len(c)))
        assert abs(z) < 4.0

    def test_vmf_mean_cos(self):
        rng = np.random.default_rng(12)
        d = VonMisesFisher(4.0)
        pts = sample_directions(d, 40000, rng)
        m = cos_moments(d)
        c = np.cos(pts[:, 0])
        z = (c.mean() - m[1]) / (c.std(ddof=1) / math.sqrt(len(c)))
        assert abs(z) < 4.0

    def test_seeded_reproducibility(self):
        a = sample_directions(PolarCap(2.0), 100, np.random.default_rng(5))
        b = sample_directions(PolarCap(2.0), 100, np.random.default_rng(5))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("dist", [PolarCap(1e-8), PolarCap(1.2), PolarCap(math.pi),
                                      Uniform(), VonMisesFisher(4.0), VonMisesFisher(1e4)])
    def test_cos_theta_column(self, dist):
        # same draws, same order: column 0 is the inverse CDF of the first
        # draw, and the default theta is its arccos
        n = 4097
        up = sample_directions(dist, n, np.random.default_rng(13), cos_theta=True)
        tp = sample_directions(dist, n, np.random.default_rng(13))
        assert np.array_equal(up[:, 0], dist.cos_inverse_cdf(np.random.default_rng(13).random(n)))
        assert np.array_equal(np.arccos(up[:, 0]), tp[:, 0])
        assert np.array_equal(up[:, 1], tp[:, 1])


class TestQutritSampling:
    def test_norms(self):
        rng = np.random.default_rng(3)
        theta4_max = math.pi / 3
        v = sample_qutrit_inputs(theta4_max, 2000, rng)
        assert v.shape == (2000, 3)
        norms = np.linalg.norm(v, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12
        # |z| >= cos(theta4) >= cos(theta4_max) inside the latitude cap
        assert np.min(np.abs(v[:, 2])) >= math.cos(theta4_max) - 1e-12

    def test_full_range_fourth_moment(self):
        # chart measure at theta4_max=pi matches the Haar value E|x_i|^4 = 1/6
        rng = np.random.default_rng(7)
        v = sample_qutrit_inputs(math.pi, 120000, rng)
        q = np.abs(v[:, 0]) ** 4
        z = (q.mean() - 1 / 6) / (q.std(ddof=1) / math.sqrt(len(q)))
        assert abs(z) < 4.0

    @pytest.mark.parametrize("theta4_max", [math.pi / 4, math.pi / 2, 0.05],
                             ids=["quarter-pi", "half-pi", "0.05"])
    def test_restricted_participation(self, theta4_max):
        rng = np.random.default_rng(9)
        v = sample_qutrit_inputs(theta4_max, 150000, rng)
        p4 = np.sum(np.abs(v) ** 4, axis=1)
        expected = participation_moment(theta4_max)
        z = (p4.mean() - expected) / (p4.std(ddof=1) / math.sqrt(len(p4)))
        assert abs(z) < 4.0

    def test_small_cutoff_scaled_angle(self):
        # the polar angle from the pole over theta4_max has a scale-free law
        # for small cutoffs; at 1e-4 the cancelling closed form of the sin^4
        # CDF used to give 0.0345 instead of 0.7365
        def scaled_angle(theta4_max):
            v = sample_qutrit_inputs(theta4_max, 400000, np.random.default_rng(0))
            a = np.arccos(np.minimum(np.abs(v[:, 2]), 1.0)) / theta4_max
            return a.mean(), a.std(ddof=1) / math.sqrt(len(a))
        m_small, se_small = scaled_angle(1e-4)
        m_ref, se_ref = scaled_angle(0.05)
        assert abs(m_small - m_ref) < 4.0 * math.hypot(se_small, se_ref)


class TestQutritPopulations:
    """populations=True gives |x|^2, |y|^2, |z|^2 of the same draws directly."""

    CAPS = [math.pi, 2.0, math.pi / 2, 0.8, 0.3, 1e-3]

    @pytest.mark.parametrize("theta4_max", CAPS)
    def test_matches_amplitudes(self, theta4_max):
        amps = sample_qutrit_inputs(theta4_max, 40000, np.random.default_rng(17))
        pops = sample_qutrit_inputs(theta4_max, 40000, np.random.default_rng(17),
                                    populations=True)
        assert pops.shape == (3, 40000) and pops.dtype == np.float64
        assert pops.flags.c_contiguous
        # populations lie in [0, 1]: 4 ulp of 1 bounds every entry's error
        ulp = np.spacing(1.0)
        assert np.abs(pops - (np.abs(amps) ** 2).T).max() <= 4 * ulp
        assert np.abs(pops.sum(axis=0) - 1.0).max() <= 4 * ulp
        assert pops.min() >= 0.0
        if theta4_max <= math.pi / 2:
            assert pops[2].min() >= math.cos(theta4_max) ** 2

    def test_same_draws(self):
        # both forms leave the generator in the same state
        g1, g2 = np.random.default_rng(5), np.random.default_rng(5)
        sample_qutrit_inputs(1.0, 1001, g1)
        sample_qutrit_inputs(1.0, 1001, g2, populations=True)
        assert g1.random() == g2.random()

    def test_no_amplitudes_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the populations path called hypot or norm")
        monkeypatch.setattr(np, "hypot", refuse)
        monkeypatch.setattr(np.linalg, "norm", refuse)
        pops = sample_qutrit_inputs(0.7, 100, np.random.default_rng(2), populations=True)
        assert pops.shape == (3, 100)

    def test_empty(self):
        assert sample_qutrit_inputs(1.0, 0, np.random.default_rng(0),
                                    populations=True).shape == (3, 0)

    def test_peak_memory(self):
        n = 40000

        def peak(**kwargs):
            sample_qutrit_inputs(math.pi, n, np.random.default_rng(1), **kwargs)
            tracemalloc.start()
            try:
                sample_qutrit_inputs(math.pi, n, np.random.default_rng(1), **kwargs)
                return tracemalloc.get_traced_memory()[1] / (8 * n)
            finally:
                tracemalloc.stop()
        # in arrays of n doubles, with numpy 2.4: 14.0 for the amplitudes, and
        # 15.3 for the populations, whose normal stays live through the
        # inversion above them; the simulator's chunk then reuses that space
        # for its (12, n) product, where a lower peak made glibc map it anew.
        # The simulator's amplitude-then-square draw peaked at 16.0 before.
        assert peak() < 15.0
        assert peak(populations=True) < 16.0


class TestSin4Start:
    """The fitted start of the sin^4 CDF inversion is within 1e-5 of the root."""

    def test_start_within_fit_error(self, monkeypatch):
        half = float(_sin4_antideriv(math.pi / 2)[0])
        target = np.concatenate([np.linspace(0.0, half, 100001),
                                 half * np.geomspace(1e-15, 1.0, 400)])
        root = _invert_sin4_antideriv(target, math.pi / 2)
        monkeypatch.setattr(distributions, "_NEWTON_STEPS", 0)
        start = _invert_sin4_antideriv(target, math.pi / 2)
        assert np.abs(start - root).max() <= 1e-5
        assert _NEWTON_STEPS == 2


class TestSin4Antiderivative:
    @staticmethod
    def _series(theta):
        # sum_{k>=2} (-1)^k (4^2k - 4^(k+1)) theta^(2k+1) / (8 (2k)! (2k+1))
        return math.fsum((-1) ** k * (4 ** (2 * k) - 4 ** (k + 1)) * theta ** (2 * k + 1)
                         / (8 * math.factorial(2 * k) * (2 * k + 1)) for k in range(2, 40))

    def test_matches_series(self):
        thetas = np.geomspace(1e-6, 0.5, 400)
        got = _sin4_antideriv(thetas)[0]
        want = np.array([self._series(t) for t in thetas])
        assert np.max(np.abs(got - want) / want) < 1e-14

    def test_closed_form_range(self):
        thetas = np.linspace(0.5, math.pi, 200)
        got = _sin4_antideriv(thetas)[0]
        want = 0.375 * thetas - 0.25 * np.sin(2 * thetas) + np.sin(4 * thetas) / 32
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)
        assert math.isclose(float(_sin4_antideriv(math.pi)[0]), 0.375 * math.pi,
                            rel_tol=1e-15)

    def test_scalar_matches_array(self):
        self._check_scalar_matches_array([1e-3, 0.4999, 0.5, 1.3, math.pi])

    # the branch covering most elements runs on the whole array, the other on
    # its complement only; elementwise results are the same on every path
    @pytest.mark.parametrize("thetas", [[1e-3, 0.1, 0.4999, 0.5, 2.0], [0.2, 0.3], [0.5, 3.0]],
                             ids=["mostly-series", "series", "closed"])
    def test_scalar_matches_array_paths(self, thetas):
        self._check_scalar_matches_array(thetas)

    @staticmethod
    def _check_scalar_matches_array(thetas):
        f_arr, s_arr = _sin4_antideriv(np.array(thetas))
        for i, theta in enumerate(thetas):
            f, s = _sin4_antideriv(theta)
            assert np.ndim(f) == 0 and np.ndim(s) == 0
            assert f == f_arr[i] and s == s_arr[i]

    @pytest.mark.parametrize("theta4_max", [math.pi, 2.5, math.pi / 2, 0.3, 0.05, 1e-4])
    def test_newton_inversion(self, theta4_max):
        f_max = float(_sin4_antideriv(theta4_max)[0])
        u = np.concatenate([np.linspace(0.0, 1.0, 20001), np.geomspace(1e-16, 1.0, 200)])
        target = np.concatenate([u * f_max, [0.0, f_max]])
        if 3 * math.pi / 16 <= f_max:
            target = np.append(target, 3 * math.pi / 16)
        theta = _invert_sin4_antideriv(target, theta4_max)
        assert not np.isnan(theta).any()
        assert theta.min() >= 0.0 and theta.max() <= theta4_max
        # F rounds to an ulp of F(theta4_max); a theta4 ulp moves F by
        # sin^4(theta4) of it
        resid = np.abs(_sin4_antideriv(theta)[0] - target)
        slack = 4 * np.spacing(f_max) + 2 * np.sin(theta) ** 4 * np.spacing(theta)
        assert np.all(resid <= slack)
