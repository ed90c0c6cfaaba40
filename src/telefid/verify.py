"""End-to-end self-checks against independent numerical routes.

Every closed form in the package is re-derived here by a second path
(tensor-product quadrature for ensemble averages, direct simulation for
protocol statistics) and compared at stated tolerances.  Output is
deterministic for a fixed seed: no timestamps, no machine info, and all
Monte Carlo draws go through seeded generators, so two runs with the
same seed produce byte-identical reports.
"""
from __future__ import annotations

import functools
import math
import time
import warnings
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .core import (BellDiagonal, BlochDirection, CorrelationTensor, InputDistribution,
                   PolarCap, PureSchmidt, Uniform, VonMisesFisher, Werner,
                   concurrence, correlation_tensor)
from .compare import match_by_classical_fidelity, match_by_mean_angle, delta_stats
from .distributions import cos_moments, density, mean_polar_angle, spread_moments
from .fidelity import (SubclassicalFidelityWarning, average_fidelity,
                       classical_fidelity, fidelity_second_moment, fidelity_stats,
                       werner_threshold, bd_rank3_threshold)
from .qutrit import (QutritSharedState, _cross_sum, dimensional_advantage,
                     participation_moment, qutrit_average_fidelity,
                     qutrit_classical_fidelity, qutrit_prior_information)
from .resources import (bell_probabilities_averaged, bell_probabilities_pointwise,
                        cc_cost, required_entanglement)
from .sim import (_qubit_protocol, _qutrit_protocol, simulate_classical, simulate_qubit,
                  simulate_qutrit)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


_CHECKS: dict = {}


def _check(name):
    def register(fn):
        _CHECKS[name] = fn
        return fn
    return register


# ---------------------------------------------------------------- quadrature

def _oracle_shape(dist: InputDistribution) -> tuple[float, float]:
    """(a, kappa): the density in u = cos(theta) is proportional to
    e^{kappa (u - 1)} on [a, 1].

    Written out here, not taken from the distribution's own methods, so
    that the quadrature stays an independent route (vMF tail cut below
    e^-40; Uniform is the kappa = 0 vMF).
    """
    if isinstance(dist, PolarCap):
        return math.cos(dist.theta0), 0.0
    if isinstance(dist, VonMisesFisher):
        k = dist.kappa
        return (max(-1.0, 1.0 - 40.0 / k) if k > 1.0 else -1.0), k
    raise TypeError(f"no quadrature oracle for {dist!r}")


@functools.cache
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only, computed once
    per order: Newton's method on P_n from the three-term recurrence,
    started at cos(pi (i - 1/4)/(n + 1/2)).  Five steps reach rounding level
    on every order from 1 to 1000; a sixth evaluation gives P_n' at the
    returned nodes for the weights 2/((1 - x^2) P_n'(x)^2).  Elementwise
    only: no BLAS or LAPACK call starts a library thread.
    """
    x = np.cos(np.pi * (np.arange(order, 0, -1) - 0.25) / (order + 0.5))
    dx = 0.0
    for _ in range(6):
        x = x - dx
        p0, p1 = np.ones_like(x), x
        for k in range(2, order + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = order * (x * p1 - p0) / (x * x - 1.0)
        dx = p1 / dp
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x = (x - x[::-1]) / 2
    w = (w + w[::-1]) / 2
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _polar_nodes(dist: InputDistribution, order: int = 96):
    """Gauss-Legendre nodes in u = cos(theta) with normalized weights."""
    a, kappa = _oracle_shape(dist)
    b = 1.0
    x, w = _leggauss(order)
    u = 0.5 * (a + b) + 0.5 * (b - a) * x
    if kappa > 0.0:
        w = w * np.exp(kappa * (u - 1.0))
    return u, w / w.sum()


_DIST_GRID = (
    Uniform(),
    PolarCap(0.05), PolarCap(0.3), PolarCap(0.8), PolarCap(math.pi / 2),
    PolarCap(2.0), PolarCap(2.8), PolarCap(math.pi),
    VonMisesFisher(0.0), VonMisesFisher(0.01), VonMisesFisher(0.2),
    VonMisesFisher(0.7), VonMisesFisher(2.0), VonMisesFisher(5.0),
    VonMisesFisher(10.0), VonMisesFisher(40.0), VonMisesFisher(300.0),
)


@_check("density-normalization")
def _check_density_norm(seed: int, quick: bool):
    worst, where = 0.0, ""
    for dist in _DIST_GRID:
        a, b = _oracle_shape(dist)[0], 1.0
        x, w = _leggauss(96)
        u = 0.5 * (a + b) + 0.5 * (b - a) * x
        w = 0.5 * (b - a) * w
        vals = np.array([density(dist, BlochDirection(math.acos(min(1.0, max(-1.0, ui))), 0.3))
                         for ui in u])
        total = 2.0 * math.pi * float((w * vals).sum())
        if abs(total - 1.0) > worst:
            worst, where = abs(total - 1.0), dist.label()
    return worst <= 1e-10, f"max |integral - 1| = {worst:.3e} at {where}"


@_check("cos-moment-quadrature")
def _check_cos_moments(seed: int, quick: bool):
    worst, where = 0.0, ""
    for dist in _DIST_GRID:
        u, w = _polar_nodes(dist)
        quad = [float((w * u ** k).sum()) for k in (1, 2, 3, 4)]
        table = cos_moments(dist)
        err = max(abs(quad[k - 1] - table[k]) for k in (1, 2, 3, 4))
        v2c, s4 = spread_moments(dist)
        q2 = float((w * u ** 2).sum())
        err = max(err, abs(float((w * u ** 4).sum()) - q2 * q2 - v2c),
                  abs(float((w * (1.0 - u ** 2) ** 2).sum()) - s4))
        if err > worst:
            worst, where = err, dist.label()
    return worst <= 1e-10, f"max moment residual = {worst:.3e} at {where}"


@_check("mean-angle-quadrature")
def _check_mean_angle(seed: int, quick: bool):
    # integrate in theta, where the weight sin(theta) rho(cos theta) is smooth
    # (in u = cos theta, arccos has a root singularity at u = 1)
    worst, where = 0.0, ""
    x, w = _leggauss(160)
    for dist in _DIST_GRID:
        a, kappa = _oracle_shape(dist)
        hi = math.acos(max(-1.0, a))
        th = 0.5 * hi * (x + 1.0)
        shape = np.sin(th)
        if kappa > 0.0:
            shape = shape * np.exp(kappa * (np.cos(th) - 1.0))
        wq = w * shape
        quad = float((wq * th).sum() / wq.sum())
        err = abs(quad - mean_polar_angle(dist))
        if err > worst:
            worst, where = err, dist.label()
    return worst <= 1e-9, f"max <theta> residual = {worst:.3e} at {where}"


def _moments_by_quadrature(tensors: np.ndarray, dist: InputDistribution):
    """(F, <f^2>) for a batch of diagonal tensors by 2-D quadrature."""
    u, w = _polar_nodes(dist)
    phi = (np.arange(16) + 0.5) * (math.pi / 8.0)
    c2 = np.cos(phi) ** 2
    s2u = 1.0 - u ** 2
    t = np.asarray(tensors)
    a = (t[:, 0, None, None] * c2 + t[:, 1, None, None] * (1.0 - c2)) \
        * s2u[None, :, None] + t[:, 2, None, None] * (u ** 2)[None, :, None]
    f = 0.5 * (1.0 - a)
    first = np.einsum('mqp,q->m', f, w) / 16.0
    second = np.einsum('mqp,q->m', f * f, w) / 16.0
    return first, second


@_check("moment-formula-consistency")
def _check_moment_formulas(seed: int, quick: bool):
    rng = np.random.default_rng(seed)
    n = 50 if quick else 200
    tensors = rng.uniform(-1.0, 1.0, size=(n, 3))
    worst = 0.0
    for dist in (PolarCap(2.0 * math.pi / 5.0), VonMisesFisher(2.5), Uniform()):
        qf, qs = _moments_by_quadrature(tensors, dist)
        for i in range(n):
            ct = CorrelationTensor(*tensors[i])
            worst = max(worst, abs(average_fidelity(ct, dist) - qf[i]),
                        abs(fidelity_second_moment(ct, dist) - qs[i]))
    return worst <= 1e-10, f"{n} tensors x 3 ensembles, max residual = {worst:.3e}"


@_check("pure-state-closed-forms")
def _check_pure_closed_forms(seed: int, quick: bool):
    dists = [PolarCap(t) for t in (0.3, 0.8, math.pi / 2, 2.0, 2.8, math.pi)] + \
            [VonMisesFisher(k) for k in (0.7, 1.0, 2.0, 5.0, 10.0, 40.0)]
    worst = 0.0
    for dist in dists:
        m2 = cos_moments(dist)[2]
        v2c = spread_moments(dist)[0]
        for c in (0.0, 0.3, 0.7, 1.0):
            st = fidelity_stats(PureSchmidt.from_concurrence(c), dist)
            worst = max(worst,
                        abs(st.mean - 0.5 * (1.0 + m2 + c * (1.0 - m2))),
                        abs(st.deviation - 0.5 * (1.0 - c) * math.sqrt(v2c)))
    return worst <= 1e-14, f"F and D closed-form residual = {worst:.3e}"


@_check("golden-thresholds")
def _check_golden(seed: int, quick: bool):
    errs = []
    cap = PolarCap(math.pi / 3.0)
    errs.append(abs(werner_threshold(cap) - 7.0 / 12.0))
    errs.append(abs(concurrence(Werner(7.0 / 12.0)) - 3.0 / 8.0))
    errs.append(abs(bd_rank3_threshold(cap) - 19.0 / 29.0))
    errs.append(abs(concurrence(BellDiagonal.rank3(19.0 / 29.0, 0.2)) - 9.0 / 29.0))
    errs.append(abs(werner_threshold(Uniform()) - 1.0 / 3.0))
    inv_sqrt5 = 1.0 / math.sqrt(5.0)
    for c in np.linspace(0.0, 1.0, 10):
        st = fidelity_stats(PureSchmidt.from_concurrence(float(c)), Uniform())
        errs.append(abs(st.mean - (2.0 + c) / 3.0))
        errs.append(abs(st.deviation - (1.0 - c) * inv_sqrt5 / 3.0))
    for k in (0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
        vmf = VonMisesFisher(k)
        errs.append(abs(0.5 * (1.0 + werner_threshold(vmf)) - classical_fidelity(vmf)))
    worst = max(errs)
    band = abs(werner_threshold(VonMisesFisher(5.0)) - 0.680)
    ok = worst <= 1e-12 and band <= 0.002
    return ok, (f"identity residual = {worst:.3e}; "
                f"|p*(kappa=5) - 0.680| = {band:.2e} (tol 2e-3)")


@_check("matching-roundtrip")
def _check_matching(seed: int, quick: bool):
    n = 25 if quick else 100
    rng = np.random.default_rng(seed + 23)
    worst = 0.0
    for tgt in rng.uniform(0.06, 0.999 * math.pi / 2.0, n):
        pair = match_by_mean_angle(float(tgt))
        worst = max(worst, abs(mean_polar_angle(pair.cap()) - tgt),
                    abs(mean_polar_angle(pair.vmf()) - tgt))
    for tgt in rng.uniform(2.0 / 3.0 + 1e-3, 0.98, n):
        pair = match_by_classical_fidelity(float(tgt))
        worst = max(worst, abs(classical_fidelity(pair.cap()) - tgt),
                    abs(classical_fidelity(pair.vmf()) - tgt))
    anchor = match_by_classical_fidelity((2.0 / 3.0) * 1.16).theta0_star
    ok = worst <= 1e-10 and abs(anchor - 1.112) <= 1e-3
    return ok, (f"max inversion residual = {worst:.3e}; "
                f"theta0*(I_f=0.16) = {anchor:.6f} (expected 1.112 +- 1e-3)")


@_check("comparison-theorems")
def _check_comparison(seed: int, quick: bool):
    n = 8 if quick else 20
    pairs = [match_by_classical_fidelity(float(t))
             for t in np.linspace(2.0 / 3.0 + 1e-3, 0.97, n)]
    worst_df, min_dd = 0.0, math.inf
    for c in np.linspace(0.0, 0.95, n):
        state = PureSchmidt.from_concurrence(float(c))
        for pair in pairs:
            df, dd = delta_stats(state, pair)
            worst_df = max(worst_df, abs(df))
            min_dd = min(min_dd, dd)
    wgaps = []
    for pair in pairs[::max(1, n // 4)]:
        wgaps += list(delta_stats(Werner(0.7), pair))
    for t in (0.3, 0.8, 1.2):
        wgaps += list(delta_stats(Werner(0.7), match_by_mean_angle(t)))
    ok = worst_df <= 1e-10 and min_dd > 0.0 and all(g == 0.0 for g in wgaps)
    return ok, (f"matched-F_cl grid: max |dF| = {worst_df:.3e}, "
                f"min dD = {min_dd:.3e}; Werner gaps all zero: "
                f"{all(g == 0.0 for g in wgaps)}")


@_check("resource-tradeoffs")
def _check_resources(seed: int, quick: bool):
    issues = []
    for dist in (PolarCap(0.6), PolarCap(1.4), VonMisesFisher(3.0), VonMisesFisher(0.5)):
        s2 = 1.0 - cos_moments(dist)[2]
        c_star = 1.0 - 1.5 * s2
        below = [required_entanglement(ct, dist)
                 for ct in np.linspace(0.0, max(0.0, c_star - 1e-6), 8)]
        if any(v != 0.0 for v in below):
            issues.append(f"nonzero below sufficiency at {dist.label()}")
        above = [required_entanglement(ct, dist)
                 for ct in np.linspace(min(1.0, c_star + 1e-6), 1.0, 8)]
        if any(not 0.0 < v <= 1.0 for v in above) or any(
                b > a for b, a in zip(above, above[1:])):
            issues.append(f"not increasing above sufficiency at {dist.label()}")
    for dist in (PolarCap(0.3), PolarCap(1.2), VonMisesFisher(6.0)):
        for alpha in (0.0, 0.1, 0.3, 0.49):
            h = cc_cost(bell_probabilities_averaged(alpha, dist))
            if not h < 2.0 - 1e-12:
                issues.append(f"H({alpha}, {dist.label()}) = {h!r} not < 2")
        if cc_cost(bell_probabilities_averaged(0.5, dist)) != 2.0:
            issues.append(f"H(0.5, {dist.label()}) != 2")
    if cc_cost(bell_probabilities_averaged(0.2, Uniform())) != 2.0:
        issues.append("H(uniform) != 2")
    return not issues, "; ".join(issues) if issues else \
        "zero below sufficiency, increasing above; H < 2 iff informative"


@_check("bell-outcome-closure")
def _check_bell_closure(seed: int, quick: bool):
    worst = 0.0
    for dist in (PolarCap(1.0), VonMisesFisher(3.0), Uniform()):
        u, w = _polar_nodes(dist)
        for alpha in (0.1, 0.35):
            acc = np.zeros(4)
            for ui, wi in zip(u, w):
                pt = bell_probabilities_pointwise(
                    alpha, BlochDirection(math.acos(min(1.0, max(-1.0, ui))), 0.0))
                acc += wi * np.array(pt.as_tuple())
            avg = np.array(bell_probabilities_averaged(alpha, dist).as_tuple())
            worst = max(worst, float(np.abs(acc - avg).max()))
    n = 10 ** 5 if quick else 4 * 10 ** 5
    rep = simulate_qubit(PureSchmidt(0.2), PolarCap(1.0), n, seed=seed + 17)
    want = np.array(bell_probabilities_averaged(0.2, PolarCap(1.0)).as_tuple())
    z = np.abs(np.array(rep.outcome_frequencies) - want) / np.sqrt(want * (1 - want) / n)
    ok = worst <= 1e-10 and float(z.max()) <= 4.0
    return ok, (f"pointwise->averaged residual = {worst:.3e}; "
                f"sim frequency max |z| = {z.max():.2f}")


def _sim_families():
    fams = [PureSchmidt.from_concurrence(c) for c in (0.0, 0.25, 0.5, 0.75, 1.0)]
    fams += [Werner(p) for p in (0.0, 0.3, 0.5, 0.7, 1.0)]
    fams += [BellDiagonal(ws) for ws in ((0.4, 0.3, 0.2, 0.1), (0.7, 0.1, 0.1, 0.1),
                                         (0.5, 0.5, 0.0, 0.0), (0.25, 0.25, 0.25, 0.25),
                                         (0.9, 0.05, 0.03, 0.02))]
    return fams


@_check("sim-oracle-qubit")
def _check_sim_qubit(seed: int, quick: bool):
    n = 10 ** 5 if quick else 10 ** 6
    dists = (PolarCap(2.0 * math.pi / 5.0), VonMisesFisher(2.5), Uniform())
    worst_z, flat_worst, count, g_err = 0.0, 0.0, 0, 0.0
    for i, fam in enumerate(_sim_families()):
        # the outcome-summed form sum_k M_k is diag(1, -t1, -t2, -t3)/2
        t1, t2, t3 = correlation_tensor(fam).as_tuple()
        gram = _qubit_protocol(fam, Uniform()).forms.sum(axis=0)
        g_err = max(g_err, float(np.abs(gram - 0.5 * np.diag([1.0, -t1, -t2, -t3])).max()))
        for j, dist in enumerate(dists):
            st = fidelity_stats(fam, dist)
            rep = simulate_qubit(fam, dist, n, seed=seed + 31 * i + j)
            count += 1
            # constant pointwise fidelity: the mean is off only by rounding,
            # far outside its (vanishing) sampling error
            if st.deviation == 0.0:
                flat_worst = max(flat_worst, abs(rep.mean - st.mean),
                                 rep.deviation if rep.deviation > 1e-6 else 0.0)
            else:
                worst_z = max(worst_z, abs(rep.mean - st.mean) / rep.mean_std_error,
                              abs(rep.deviation - st.deviation) / rep.deviation_std_error)
    ok = worst_z <= 4.0 and flat_worst <= 1e-6 and g_err <= 1e-14
    return ok, (f"{count} runs at n={n}: max |z| = {worst_z:.2f} (tol 4); "
                f"degenerate-case residual = {flat_worst:.1e}; "
                f"sum_k M_k vs closed form = {g_err:.1e} (tol 1e-14)")


@_check("sim-oracle-classical")
def _check_sim_classical(seed: int, quick: bool):
    n = 10 ** 5 if quick else 10 ** 6
    worst = 0.0
    for i, dist in enumerate((PolarCap(0.8), VonMisesFisher(3.0), Uniform())):
        rep = simulate_classical(dist, n, seed=seed + i)
        worst = max(worst, abs(rep.mean - classical_fidelity(dist)) / rep.mean_std_error)
    return worst <= 4.0, f"measure-prepare baseline max |z| = {worst:.2f} (tol 4)"


@_check("sim-oracle-qutrit")
def _check_sim_qutrit(seed: int, quick: bool):
    n = 10 ** 5 if quick else 10 ** 6
    rng = np.random.default_rng(seed + 5)
    worst, g_err = 0.0, 0.0
    for i in range(3):
        w = rng.dirichlet((1.0, 1.0, 1.0))
        shared = QutritSharedState(float(w[0]), float(w[1]))
        # the outcome-summed form sum_k f_k f_k^T is K J + (1 - K) I
        k = _cross_sum(shared)
        gram = _qutrit_protocol(shared, math.pi).forms.sum(axis=0)
        g_err = max(g_err, float(np.abs(gram - (1.0 - k) * np.eye(3) - k).max()))
        for j, t4 in enumerate((math.pi, math.pi / 4.0)):
            exact = qutrit_average_fidelity(shared, t4).estimate
            rep = simulate_qutrit(shared, t4, n, seed=seed + 7 * i + j)
            worst = max(worst, abs(rep.mean - exact) / rep.mean_std_error)
    ok = worst <= 4.0 and g_err <= 1e-14
    return ok, (f"6 runs at n={n}: max |z| = {worst:.2f} (tol 4); "
                f"sum_k M_k vs closed form = {g_err:.1e} (tol 1e-14)")


def _p4_by_quadrature(theta4_max: float) -> float:
    """<P4> by 48-node Gauss-Legendre in theta4, (19/35) s^4 + (2/5) s^2 c^2 +
    c^4 against sin^4, written apart from the closed form and its sin^4 antiderivative."""
    x, w = _leggauss(48)
    s2 = np.sin(0.5 * theta4_max * (x + 1.0)) ** 2
    c2 = 1.0 - s2
    w = w * s2 * s2
    return float((w * ((19.0 / 35.0) * s2 * s2 + 0.4 * s2 * c2 + c2 * c2)).sum() / w.sum())


@_check("qutrit-block")
def _check_qutrit_block(seed: int, quick: bool):
    n = 10 ** 5 if quick else 10 ** 6
    rep = qutrit_classical_fidelity(math.pi, method="mc", n_samples=n, seed=seed + 2)
    z_cl = abs(rep.estimate - 0.5) / rep.std_error

    m_n = 10 ** 5 if quick else 4 * 10 ** 5
    res = qutrit_classical_fidelity(math.pi / 4.0, method="mc", n_samples=m_n,
                                    seed=seed + 3)
    # the K = 0 fidelity is P4, so these are the restricted and uniform <P4>
    # F_restricted - F_uniform = (1 - K) gap with 1 - K >= 0 for every
    # resource, so no resource loses by the restriction iff gap >= -4 se
    gap = res.estimate - rep.estimate
    bound = -4.0 * math.hypot(res.std_error, rep.std_error)

    cutoffs = (1e-3, 0.05, 0.3, 0.5, math.pi / 4.0, 1.2, math.pi / 2.0, 2.5, math.pi)
    p4_err = max(abs(participation_moment(t) - _p4_by_quadrature(t)) for t in cutoffs)
    i_f = qutrit_prior_information(math.pi / 4.0).fractional
    ok = z_cl <= 4.0 and gap >= bound and p4_err <= 1e-13 and abs(i_f - 0.16) <= 0.02
    return ok, (f"uniform classical |z| = {z_cl:.2f}; restricted-vs-uniform <P4> gap "
                f"= {gap:.4f} (bound {bound:.4f}); <P4> vs Gauss-Legendre = {p4_err:.1e} "
                f"at {len(cutoffs)} cutoffs (tol 1e-13); "
                f"I_f(pi/4) = {i_f:.4f} (expected 0.16 +- 0.02)")


@_check("dimensional-advantage")
def _check_dimensional_advantage(seed: int, quick: bool):
    m = 2000 if quick else 10 ** 4
    n = 10 ** 4 if quick else 10 ** 5
    r2 = dimensional_advantage(2, 0.16, ensemble_size=m, n_samples=n, seed=seed + 11)
    r3 = dimensional_advantage(3, 0.16, ensemble_size=m, n_samples=n, seed=seed + 12)
    ok = abs(r2.estimate - 23.0) <= 3.0 and abs(r3.estimate - 57.0) <= 6.0
    return ok, (f"eta_2 = {r2.estimate:.2f}% (expected 23 +- 3), "
                f"eta_3 = {r3.estimate:.2f}% (expected 57 +- 6)")


@_check("limit-recovery")
def _check_limits(seed: int, quick: bool):
    grid = np.linspace(-0.95, 0.95, 5 if quick else 10)
    uniform = Uniform()
    cap_pi = PolarCap(math.pi)
    vmf_0 = VonMisesFisher(1e-8)
    worst_cap, worst_vmf = 0.0, 0.0
    for t1 in grid:
        for t2 in grid:
            for t3 in grid:
                ct = CorrelationTensor(float(t1), float(t2), float(t3))
                su = fidelity_stats(ct, uniform)
                sc = fidelity_stats(ct, cap_pi)
                sv = fidelity_stats(ct, vmf_0)
                worst_cap = max(worst_cap, abs(su.mean - sc.mean),
                                abs(su.deviation - sc.deviation))
                worst_vmf = max(worst_vmf, abs(su.mean - sv.mean),
                                abs(su.deviation - sv.deviation))
    ok = worst_cap <= 1e-14 and worst_vmf <= 1e-8
    return ok, (f"full-cap residual = {worst_cap:.1e} (tol 1e-14); "
                f"kappa->0 residual = {worst_vmf:.1e} (tol 1e-8)")


@_check("werner-distribution-independence")
def _check_werner_independence(seed: int, quick: bool):
    dists = (Uniform(), PolarCap(0.7), PolarCap(2.0), VonMisesFisher(1.0),
             VonMisesFisher(8.0))
    ok = True
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        stats = [fidelity_stats(Werner(p), d) for d in dists]
        ref = stats[0]
        ok &= all(s.mean == ref.mean and s.deviation == 0.0
                  and s.second_moment == s.mean * s.mean for s in stats)
    return ok, "mean identical across ensembles, deviation exactly zero"


CHECK_NAMES = tuple(_CHECKS)


def run_check(name: str, seed: int = 0, quick: bool = False) -> CheckResult:
    """Run one named check; see CHECK_NAMES for the registry."""
    with warnings.catch_warnings():
        # random tensors and weak resources sit below the benchmark by design
        warnings.simplefilter("ignore", SubclassicalFidelityWarning)
        passed, detail = _CHECKS[name](seed, quick)
    return CheckResult(name, passed, detail)


def run_verification(seed: int = 0, quick: bool = False,
                     timings: TextIO | None = None) -> tuple[bool, str]:
    """Run every check; returns (all_passed, deterministic report text).

    With `timings`, each check's wall and CPU seconds go there as one line
    (CPU well above wall means helper threads are busy); the report is the same.
    """
    lines = []
    all_ok = True
    for name in CHECK_NAMES:
        wall, cpu = time.perf_counter(), time.process_time()
        res = run_check(name, seed=seed, quick=quick)
        if timings is not None:
            print(f"{name}: wall {time.perf_counter() - wall:.3f} s, "
                  f"cpu {time.process_time() - cpu:.3f} s", file=timings)
        all_ok &= res.passed
        lines.append(f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: {res.detail}")
    lines.append("all checks passed" if all_ok
                 else f"{sum(1 for ln in lines if ln.startswith('[FAIL]'))} check(s) failed")
    return all_ok, "\n".join(lines) + "\n"
