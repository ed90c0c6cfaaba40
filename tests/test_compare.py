import math

import numpy as np
import pytest

from telefid.compare import (KAPPA_MAX, KAPPA_MIN, MatchCriterion, _XTOL, _bracketed_root,
                             cap_theta0_for_classical_fidelity, delta_stats,
                             match_by_classical_fidelity, match_by_mean_angle,
                             sweep_comparison, vmf_kappa_for_classical_fidelity)
from telefid.core import PolarCap, PureSchmidt, VonMisesFisher, Werner
from telefid.distributions import mean_polar_angle
from telefid.fidelity import classical_fidelity, fidelity_stats
from telefid.qutrit import _THETA4_FLOOR, participation_moment


class TestInversions:
    @pytest.mark.parametrize("target", [0.68, 0.75, 0.85, 0.97])
    def test_cap_classical_roundtrip(self, target):
        theta0 = cap_theta0_for_classical_fidelity(target)
        assert math.isclose(classical_fidelity(PolarCap(theta0)), target,
                            abs_tol=1e-10)

    @pytest.mark.parametrize("target", [0.67, 0.8, 0.95, 0.995])
    def test_vmf_classical_roundtrip(self, target):
        kappa = vmf_kappa_for_classical_fidelity(target)
        assert math.isclose(classical_fidelity(VonMisesFisher(kappa)), target,
                            abs_tol=1e-10)

    def test_cap_rejects_out_of_band(self):
        with pytest.raises(ValueError):
            cap_theta0_for_classical_fidelity(0.5)
        with pytest.raises(ValueError):
            cap_theta0_for_classical_fidelity(1.0)

    def test_anchor_values(self):
        theta0 = cap_theta0_for_classical_fidelity((2.0 / 3.0) * 1.16)
        assert math.isclose(theta0, 1.11141002989095515, abs_tol=1e-9)
        kappa = vmf_kappa_for_classical_fidelity(0.91)
        assert math.isclose(kappa, 10.0, abs_tol=1e-6)

    def test_bisect_needs_a_sign_change(self):
        root = _bracketed_root(lambda x: x * x - 2.0, 0.0, 2.0, 1e-13)
        assert abs(root - math.sqrt(2.0)) <= 1e-13
        assert _bracketed_root(lambda x: 1.0 - x, 0.0, 1.0, 1e-13) == 1.0
        with pytest.raises(ValueError, match="same sign"):
            _bracketed_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-13)


def _bisection(f, lo, hi, xtol):
    # the matchers' former root finder: plain bisection on the same bracket
    flo = f(lo)
    while True:
        mid = 0.5 * (lo + hi)
        if hi - lo <= xtol or not lo < mid < hi:
            return mid
        if (f(mid) < 0.0) == (flo < 0.0):
            lo = mid
        else:
            hi = mid


_FLOOR = mean_polar_angle(VonMisesFisher(KAPPA_MAX))


class TestRootFinder:
    """Each call site lands where bisection did, in few evaluations."""

    SITES = {
        "cap-mean-angle": (lambda t: lambda x: mean_polar_angle(PolarCap(x)) - t,
                           1e-9, math.pi, _XTOL, np.linspace(_FLOOR, math.pi / 2 - 0.01, 41)),
        "vmf-mean-angle": (lambda t: lambda k: mean_polar_angle(VonMisesFisher(k)) - t,
                           KAPPA_MIN, KAPPA_MAX, _XTOL,
                           np.linspace(_FLOOR, math.pi / 2 - 0.01, 41)),
        "vmf-classical-fidelity": (
            lambda t: lambda k: classical_fidelity(VonMisesFisher(k)) - t,
            KAPPA_MIN, KAPPA_MAX, _XTOL, np.linspace(0.67, 0.99, 41)),
        "fractional-info": (
            lambda t: lambda x: 2.0 * participation_moment(x) - 1.0 - t,
            _THETA4_FLOOR, math.pi / 2, 1e-12,
            np.concatenate([np.geomspace(1e-9, 1e-2, 8), np.linspace(0.01, 0.99, 41)])),
    }

    @pytest.mark.parametrize("site", sorted(SITES))
    def test_matches_bisection_in_few_evaluations(self, site):
        make, lo, hi, xtol, targets = self.SITES[site]
        for target in targets:
            f = make(float(target))
            xs = []
            root = _bracketed_root(lambda x: xs.append(x) or f(x), lo, hi, xtol)
            want = _bisection(f, lo, hi, xtol)
            # where f is flat its rounding (~2e-16) moves the root by more than
            # xtol, for bisection as much as for any other method
            h = 1e-7 * want
            slope = abs(f(want + h) - f(want - h)) / (2.0 * h)
            assert abs(root - want) <= xtol + 4e-16 / slope, (target, root, want)
            # I_f is nearly flat at pi/2 (it returns to 0 there), so a target
            # just above 0 keeps one end of the bracket pinned for a few steps
            assert len(xs) <= (16 if site == "fractional-info" and target < 2e-3 else 15), \
                (target, len(xs))

    def test_slow_interpolation_falls_back_to_bisection(self):
        # a flat tail pins false position at one end; the bisection guard keeps
        # the count within a small multiple of plain bisection's 53
        xs = []
        root = _bracketed_root(lambda x: xs.append(x) or math.copysign(abs(x) ** 9, x) - 1e-30,
                               -1.0, 3.0, 1e-13)
        assert abs(root - 1e-30 ** (1 / 9)) <= 1e-13
        assert len(xs) <= 4 * 53


class TestMatchByMeanAngle:
    @pytest.mark.parametrize("theta0", [0.4, 1.0, 2.0])
    def test_roundtrip(self, theta0):
        pair = match_by_mean_angle(mean_polar_angle(PolarCap(theta0)))
        assert math.isclose(pair.theta0_star, theta0, abs_tol=1e-10)
        assert math.isclose(mean_polar_angle(pair.vmf()), pair.matched_value,
                            abs_tol=1e-10)

    def test_uniform_endpoint(self):
        pair = match_by_mean_angle(math.pi / 2)
        assert pair.theta0_star == math.pi
        assert pair.kappa_star == 0.0

    def test_rejects_unreachable_angles(self):
        with pytest.raises(ValueError):
            match_by_mean_angle(0.02)
        with pytest.raises(ValueError):
            match_by_mean_angle(math.pi / 2 + 0.01)

    def test_criterion_tag(self):
        pair = match_by_mean_angle(1.0)
        assert pair.criterion is MatchCriterion.MEAN_POLAR_ANGLE


class TestMatchByClassicalFidelity:
    @pytest.mark.parametrize("target", [0.7, 0.8, 0.92])
    def test_both_sides_hit_target(self, target):
        pair = match_by_classical_fidelity(target)
        assert math.isclose(classical_fidelity(pair.cap()), target,
                            abs_tol=1e-10)
        assert math.isclose(classical_fidelity(pair.vmf()), target,
                            abs_tol=1e-10)

    def test_open_interval(self):
        with pytest.raises(ValueError):
            match_by_classical_fidelity(2.0 / 3.0)
        with pytest.raises(ValueError):
            match_by_classical_fidelity(1.0)


class TestDeltaStats:
    @pytest.mark.parametrize("c", [0.0, 0.3, 0.8])
    def test_pure_state_mean_ties_deviation_splits(self, c):
        pair = match_by_classical_fidelity(0.8)
        d_f, d_d = delta_stats(PureSchmidt.from_concurrence(c), pair)
        assert abs(d_f) < 1e-12
        if c < 1.0:
            assert d_d > 0.0

    def test_maximal_pure_state_degenerate(self):
        pair = match_by_classical_fidelity(0.75)
        d_f, d_d = delta_stats(PureSchmidt.from_concurrence(1.0), pair)
        assert abs(d_f) < 1e-15
        assert abs(d_d) < 1e-15

    @pytest.mark.filterwarnings("ignore::telefid.fidelity.SubclassicalFidelityWarning")
    def test_werner_blind_to_distribution(self):
        for target in (0.7, 0.9):
            pair = match_by_classical_fidelity(target)
            d_f, d_d = delta_stats(Werner(0.77), pair)
            assert d_f == 0.0
            assert d_d == 0.0

    def test_mean_angle_pairing_shifts_mean(self):
        # matching the angle does not match m2, so the means part ways
        pair = match_by_mean_angle(1.0)
        d_f, _ = delta_stats(PureSchmidt.from_concurrence(0.3), pair)
        assert abs(d_f) > 1e-6

    def test_consistency_with_fidelity_stats(self):
        pair = match_by_classical_fidelity(0.82)
        fam = PureSchmidt.from_concurrence(0.4)
        cap_stats = fidelity_stats(fam, pair.cap())
        vmf_stats = fidelity_stats(fam, pair.vmf())
        d_f, d_d = delta_stats(fam, pair)
        assert math.isclose(d_f, vmf_stats.mean - cap_stats.mean, abs_tol=1e-15)
        assert math.isclose(d_d, vmf_stats.deviation - cap_stats.deviation,
                            abs_tol=1e-15)


class TestSweep:
    def test_row_structure(self):
        targets = np.linspace(0.7, 0.9, 5)
        rows = sweep_comparison(PureSchmidt.from_concurrence(0.5),
                                MatchCriterion.CLASSICAL_FIDELITY, targets)
        assert len(rows) == 5
        for target, row in zip(targets, rows):
            assert math.isclose(row.matched_value, target, abs_tol=1e-15)
            assert row.theta0_star > 0.0
            assert row.kappa_star >= 0.0
            assert abs(row.delta_f) < 1e-10
            assert row.delta_d > 0.0
