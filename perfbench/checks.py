"""Correctness checks on the program's outputs.

Each check takes an output as the program returned it (a report object,
a list of shot records, the text of a CSV file or of the verify report)
plus the inputs that produced it, compares it with `oracles` or with a
property the method must have, and raises CheckError on any mismatch.
CSV checks return the number of data rows they read.

Statistical comparisons allow Z_LIMIT standard errors.  A run makes about
10^3 such comparisons and the benchmark's acceptance about 10^5, so a
4-sigma limit would fail a correct program somewhere among them; at 5.5
sigma the chance of a false alarm is below 1e-7 per comparison.  The
standard errors of simulated means and deviations come from the oracle's
own moments (deviation and kurtosis at the asked-for N), not from the
error bars the simulator reports.
"""
from __future__ import annotations

import math
import re

import numpy as np

import oracles as orc

Z_LIMIT = 5.5
# CSV values carry 12 significant digits
CSV_TOL = 1e-10


class CheckError(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _within_z(what: str, value: float, expected: float, se: float) -> None:
    _require(se > 0.0 and math.isfinite(value),
             f"{what}: value {value!r} with standard error {se!r}")
    z = abs(value - expected) / se
    _require(z <= Z_LIMIT, f"{what}: {value!r} is {z:.2f} standard errors from "
                           f"the reference {expected!r} (limit {Z_LIMIT})")


def _close(what: str, value: float, expected: float, tol: float) -> None:
    _require(abs(value - expected) <= tol,
             f"{what}: {value!r} differs from the reference {expected!r} by "
             f"{abs(value - expected):.3e} (tolerance {tol:g})")


def _frequencies(what: str, freq, probs, n: int) -> None:
    freq = np.asarray(freq, dtype=float)
    _require(len(freq) == len(probs), f"{what}: {len(freq)} outcome frequencies, "
                                      f"expected {len(probs)}")
    _close(f"{what} frequency sum", float(freq.sum()), 1.0, 1e-12)
    for k, (f, p) in enumerate(zip(freq, probs)):
        _within_z(f"{what} outcome {k} frequency", float(f), float(p),
                  math.sqrt(p * (1.0 - p) / n))


# ------------------------------------------------------------------- qubit

def _mean_and_deviation(what: str, rep, ref: orc.Spread, n: int) -> None:
    _within_z(f"{what} mean", rep.mean, ref.mean, ref.mean_se(n))
    _within_z(f"{what} deviation", rep.deviation, ref.deviation, ref.deviation_se(n))


def check_qubit_report(rep, n: int, rho, ens) -> None:
    """simulate_qubit: F, D and Bell-outcome frequencies against quadrature."""
    what = f"simulate_qubit {ens}"
    _require(rep.n_samples == n, f"{what}: n_samples {rep.n_samples}, asked for {n}")
    ref = orc.fidelity_moments(orc.correlations(rho), ens)
    if ref.deviation < 1e-9:
        # Werner: every input has the same fidelity (1 + p)/2, whatever the
        # ensemble, so the mean is exact and the spread is rounding only
        _close(f"{what} mean", rep.mean, ref.mean, 1e-12)
        _require(rep.deviation <= 1e-6, f"{what}: deviation {rep.deviation!r} of a "
                                        f"resource whose fidelity is constant")
    else:
        _mean_and_deviation(what, rep, ref, n)
    _frequencies(what, rep.outcome_frequencies, orc.bell_outcome_probabilities(rho, ens), n)


def check_classical_report(rep, n: int, ens) -> None:
    """simulate_classical: fidelity (1 + cos^2)/2 and z-outcome frequencies."""
    what = f"simulate_classical {ens}"
    _require(rep.n_samples == n, f"{what}: n_samples {rep.n_samples}, asked for {n}")
    _mean_and_deviation(what, rep, orc.classical_moments(ens), n)
    p0 = 0.5 * (1.0 + orc.cos_moment(ens, 1))
    _frequencies(what, rep.outcome_frequencies, (p0, 1.0 - p0), n)


def check_qubit_runs(runs, n: int, rho, ens) -> None:
    """qubit_runs: one record per shot, inputs inside the ensemble's support."""
    what = f"qubit_runs {ens}"
    _require(len(runs) == n, f"{what}: {len(runs)} records, asked for {n}")
    k = np.array([r.bell_outcome for r in runs])
    fid = np.array([r.output_fidelity for r in runs])
    theta = np.array([r.input_direction.theta for r in runs])
    _require(bool(np.all((k >= 0) & (k < 4))), f"{what}: Bell outcome outside 0..3")
    _require(bool(np.all((fid >= -1e-12) & (fid <= 1.0 + 1e-12))),
             f"{what}: conditional fidelity outside [0, 1]")
    if ens[0] == "cap":
        _require(float(theta.max()) <= ens[1] + 1e-12,
                 f"{what}: input at theta {theta.max()!r} outside the cap")
    # a shot's fidelity varies with its outcome too: use the shots' own spread
    _within_z(f"{what} mean conditional fidelity", float(fid.mean()),
              orc.fidelity_moments(orc.correlations(rho), ens).mean,
              float(fid.std()) / math.sqrt(n))
    _frequencies(what, np.bincount(k, minlength=4) / n,
                 orc.bell_outcome_probabilities(rho, ens), n)


# ------------------------------------------------------------------ qutrit

def check_theta4(theta4: float, target: float) -> None:
    """theta4_for_fractional_info: the cutoff carries the asked-for I_f."""
    _require(0.0 < theta4 <= 0.5 * math.pi, f"theta4 {theta4!r} outside (0, pi/2]")
    _close(f"I_f at theta4 = {theta4!r}", orc.fractional_info_qutrit(theta4), target, 1e-9)


def check_qutrit_report(rep, n: int, weights, theta4: float) -> None:
    what = f"simulate_qutrit {weights} theta4={theta4:.6g}"
    _require(rep.n_samples == n, f"{what}: n_samples {rep.n_samples}, asked for {n}")
    _mean_and_deviation(what, rep, orc.qutrit_fidelity_moments(weights, theta4), n)
    freq = np.asarray(rep.outcome_frequencies)
    _require(len(freq) == 9 and bool(np.all(freq >= 0.0)),
             f"{what}: outcome frequencies {freq}")
    _close(f"{what} frequency sum", float(freq.sum()), 1.0, 1e-12)


def check_qutrit_mc(est, n: int, weights, theta4: float) -> None:
    what = f"qutrit_average_fidelity(mc) {weights} theta4={theta4:.6g}"
    _require(est.n_samples == n, f"{what}: n_samples {est.n_samples}, asked for {n}")
    ref = orc.qutrit_fidelity_moments(weights, theta4)
    _within_z(what, est.estimate, ref.mean, ref.mean_se(n))


def check_dimensional_advantage(est, info: float, ensemble: int) -> None:
    """eta_3 = 100 <K> (1 - m)/m with m = <P4> = (1 + I_f)/2."""
    what = f"dimensional_advantage(3, {info!r})"
    _require(est.n_samples == ensemble, f"{what}: ensemble {est.n_samples}, asked "
                                        f"for {ensemble}")
    m = 0.5 * (1.0 + info)
    _within_z(what, est.estimate, 100.0 * orc.MEAN_CROSS_SUM_UNIFORM * (1.0 - m) / m,
              est.std_error)


def check_qutrit_runs(runs, n: int, weights, theta4: float) -> None:
    """qutrit_runs: unit-norm inputs inside the latitude cap; mean fidelity."""
    what = f"qutrit_runs {weights} theta4={theta4:.6g}"
    _require(len(runs) == n, f"{what}: {len(runs)} records, asked for {n}")
    amps = np.array([r.input_amplitudes for r in runs])
    k = np.array([r.bell_outcome for r in runs])
    fid = np.array([r.output_fidelity for r in runs])
    norm_err = float(np.abs((np.abs(amps) ** 2).sum(axis=1) - 1.0).max())
    _require(norm_err <= 1e-12, f"{what}: input norm off by {norm_err:.3e}")
    if theta4 <= 0.5 * math.pi:
        zmin = float(np.abs(amps[:, 2]).min())
        _require(zmin >= math.cos(theta4) - 1e-12,
                 f"{what}: input with |z| = {zmin!r} < cos(theta4_max) = "
                 f"{math.cos(theta4)!r}")
    _require(bool(np.all((k >= 0) & (k < 9))), f"{what}: Weyl outcome outside 0..8")
    _require(bool(np.all((fid >= -1e-12) & (fid <= 1.0 + 1e-12))),
             f"{what}: conditional fidelity outside [0, 1]")
    _within_z(f"{what} mean conditional fidelity", float(fid.mean()),
              orc.qutrit_fidelity_moments(weights, theta4).mean,
              float(fid.std()) / math.sqrt(n))


# --------------------------------------------------------------------- CLI

def parse_csv(text: str, header: str) -> np.ndarray:
    lines = text.splitlines()
    _require(bool(lines) and lines[0] == header,
             f"CSV header {lines[0] if lines else None!r}, expected {header!r}")
    return np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]]).reshape(
        len(lines) - 1, header.count(",") + 1)


def _grid(rows: np.ndarray, grid: tuple) -> np.ndarray:
    start, stop, points = grid
    _require(len(rows) == points, f"{len(rows)} CSV rows, expected {points}")
    want = np.linspace(start, stop, points)
    err = float(np.abs(rows[:, 0] - want).max())
    _require(err <= 1e-11 * max(1.0, abs(stop)), f"grid column off by {err:.3e}")
    return want


def _ensemble(kind: str, value: float) -> tuple:
    return ("uniform",) if kind == "uniform" else (kind, float(value))


def check_sweep(text: str, rho, kind: str, grid: tuple | None, werner: bool) -> int:
    """sweep: F, D, F_cl, I, I_f at every grid point."""
    rows = parse_csv(text, "param,F,D,F_cl,I,I_f")
    if grid:
        params = _grid(rows, grid)
    else:
        _require(len(rows) == 1, f"{len(rows)} rows for a uniform sweep, expected 1")
        params = [0.0]
    t = orc.correlations(rho)
    for row, v in zip(rows, params):
        ens = _ensemble(kind, v)
        ref = orc.fidelity_moments(t, ens)
        fcl = orc.classical_fidelity(ens)
        _close(f"sweep F at {ens}", row[1], ref.mean, CSV_TOL)
        _close(f"sweep D at {ens}", row[2], ref.deviation, CSV_TOL)
        _close(f"sweep F_cl at {ens}", row[3], fcl, CSV_TOL)
        _close(f"sweep I at {ens}", row[4], fcl - 2.0 / 3.0, CSV_TOL)
        _close(f"sweep I_f at {ens}", row[5], 1.5 * (fcl - 2.0 / 3.0), CSV_TOL)
        if werner:
            _require(row[2] == 0.0, f"Werner deviation {row[2]!r} at {ens} is not zero")
    return len(rows)


def _pure_fidelity(c: float, ens) -> float:
    alpha = 0.5 * (1.0 - math.sqrt(max(0.0, 1.0 - c * c)))
    return orc.fidelity_moments(orc.correlations(orc.rho_pure(alpha)), ens).mean


def check_resources(text: str, kind: str, grid: tuple, c_target: float,
                    alpha: float) -> int:
    """resources: least concurrence meeting (2 + c)/3, and H of the Bell record."""
    rows = parse_csv(text, "param,C_required,H_bits")
    goal = (2.0 + c_target) / 3.0
    for row, v in zip(rows, _grid(rows, grid)):
        ens = _ensemble(kind, v)
        c_req, h = row[1], row[2]
        _require(0.0 <= c_req <= 1.0, f"C_required {c_req!r} at {ens}")
        if c_req > 0.0:
            _close(f"F(C_required) at {ens}", _pure_fidelity(c_req, ens), goal, 1e-9)
        else:
            _require(_pure_fidelity(0.0, ens) >= goal - 1e-9,
                     f"C_required 0 at {ens}, but a product state misses {goal!r}")
        probs = orc.bell_outcome_probabilities(orc.rho_pure(alpha), ens)
        _close(f"H_bits at {ens}", h, orc.entropy_bits(probs), CSV_TOL)
        if abs(probs[2] - probs[0]) > 2e-4:
            _require(h < 2.0, f"H = {h!r} bits for an informative ensemble {ens}")
    return len(rows)


def check_compare(text: str, criterion: str, grid: tuple, conc: float) -> int:
    """compare: the pair matches its target; gaps against quadrature."""
    rows = parse_csv(text, "matched_value,theta0_star,kappa_star,delta_F,delta_D")
    alpha = 0.5 * (1.0 - math.sqrt(1.0 - conc * conc))
    t = orc.correlations(orc.rho_pure(alpha))
    for row, target in zip(rows, _grid(rows, grid)):
        cap, vmf = ("cap", row[1]), ("vmf", row[2])
        if criterion == "mean-polar-angle":
            _close(f"<theta> of {cap}", orc.mean_polar_angle(cap), target, 1e-9)
            _close(f"<theta> of {vmf}", orc.mean_polar_angle(vmf), target, 1e-9)
        else:
            _close(f"F_cl of {cap}", orc.classical_fidelity(cap), target, 1e-9)
            _close(f"F_cl of {vmf}", orc.classical_fidelity(vmf), target, 1e-9)
            _require(abs(row[3]) <= 1e-10, f"|dF| = {abs(row[3])!r} at matched F_cl "
                                           f"{target!r}")
            _require(row[4] > 0.0, f"dD = {row[4]!r} at matched F_cl {target!r}: "
                                   f"the cap should have the smaller spread")
        sv, sc = orc.fidelity_moments(t, vmf), orc.fidelity_moments(t, cap)
        _close(f"delta_F at {target!r}", row[3], sv.mean - sc.mean, 1e-9)
        _close(f"delta_D at {target!r}", row[4], sv.deviation - sc.deviation, 1e-9)
    return len(rows)


def qutrit_grid_points(points: int) -> list:
    """(a, b) cell centres the command keeps: a + b <= 1 in floating point."""
    return [((i + 0.5) / points, (j + 0.5) / points)
            for i in range(points) for j in range(points)
            if (i + 0.5) / points + (j + 0.5) / points <= 1.0]


def check_qutrit_grid(text: str, points: int, theta4: float) -> int:
    """qutrit: restricted and uniform F over the Schmidt simplex."""
    rows = parse_csv(text, "a,b,F_restricted,F_uniform,delta_F")
    want = qutrit_grid_points(points)
    _require(len(rows) == len(want), f"{len(rows)} simplex rows, expected {len(want)}")
    m_r = orc.p4_moments(theta4).mean
    for row, (a, b) in zip(rows, want):
        _require(row[0] == a and row[1] == b, f"row ({row[0]}, {row[1]}), expected ({a}, {b})")
        k = orc.qutrit_cross_sum((a, b, max(0.0, 1.0 - a - b)))
        f_r, f_u = k + (1.0 - k) * m_r, k + (1.0 - k) * 0.5
        _close(f"F_restricted at ({a}, {b})", row[2], f_r, CSV_TOL)
        _close(f"F_uniform at ({a}, {b})", row[3], f_u, CSV_TOL)
        _close(f"delta_F at ({a}, {b})", row[4], f_r - f_u, CSV_TOL)
    return len(rows)


def check_eta2(text: str, info: float, ensemble: int, n: int) -> int:
    """qutrit --eta --dim 2: eta_2 = 100 (1 - F_cl)/F_cl <C>, <C> = pi/4."""
    rows = parse_csv(text, "dim,eta_percent,std_error,ensemble_size,n_samples")
    _require(len(rows) == 1, f"{len(rows)} eta rows")
    dim, eta, se, m, nn = rows[0]
    _require((dim, m, nn) == (2, ensemble, n), f"eta row {rows[0]}")
    fcl = (2.0 / 3.0) * (1.0 + info)
    _within_z("eta_2", eta, 100.0 * (1.0 - fcl) / fcl * orc.MEAN_CONCURRENCE_UNIFORM, se)
    return 1


_THETA0 = re.compile(r"theta0\*\(I_f=0\.16\) = ([0-9.]+)")
_INFO = re.compile(r"I_f\(pi/4\) = ([0-9.]+)")


def check_verify(code: int, text: str, names: tuple) -> None:
    """verify --quick: exit 0, a PASS line per check, and two figures re-derived."""
    lines = text.splitlines()
    _require(code == 0, f"verify exited {code}")
    _require(len(lines) == len(names) + 1 and lines[-1] == "all checks passed",
             f"verify report has {len(lines)} lines ending {lines[-1:]!r}")
    for line, name in zip(lines, names):
        _require(line.startswith(f"[PASS] {name}: "), f"verify line {line!r}")
    theta0 = _THETA0.search(text)
    info = _INFO.search(text)
    _require(theta0 is not None and info is not None,
             "verify report lacks theta0*(I_f=0.16) or I_f(pi/4)")
    # printed to 6 and 4 decimals
    _close("verify theta0*(I_f=0.16)", float(theta0.group(1)),
           orc.cap_for_classical_fidelity((2.0 / 3.0) * 1.16), 5.1e-7)
    _close("verify I_f(pi/4)", float(info.group(1)),
           orc.fractional_info_qutrit(0.25 * math.pi), 5.1e-5)
