"""Shows that every correctness check accepts a real output and rejects a broken one.

    python3 perfbench/selftest.py        # from the root of a telefid checkout

Each case makes a real output with a small call into the program, feeds it
to its check (which must pass), then feeds a perturbed copy (which must
fail).  It also checks that BENCHMARK.json names the per-layer metrics that
spans.py reports, and the verify checks that the program registers.
Exit status 0 when every case behaves, 1 otherwise.  Takes about 30 s,
most of it one `verify --quick`.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import sys

import checks as chk
import oracles as orc
import spans
from run import HERE, _import_telefid


def _csv_edit(text: str, row: int, col: int, value: str) -> str:
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _drop_row(text: str, row: int) -> str:
    lines = text.splitlines()
    del lines[row]
    return "\n".join(lines) + "\n"


def _away(value: float, ref: float, se: float) -> float:
    """value moved 7 standard errors further from ref, past the Z_LIMIT of 5.5."""
    return value + math.copysign(7.0 * se, value - ref)


def _cli(tf, argv: list[str], path: str) -> tuple[int, str]:
    with contextlib.redirect_stderr(io.StringIO()):
        code = tf.cli.main(argv + ["--out", path])
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    os.remove(path)
    return code, text


def cases(tf, modules, scratch: str):
    """(name, check on the real output, check on the perturbed output)."""
    core, sim, q = tf.core, tf.sim, tf.qutrit
    path = os.path.join(scratch, "selftest.out")

    alpha, cap = 0.2, ("cap", 0.8)
    rho = orc.rho_pure(alpha)
    rep = sim.simulate_qubit(core.PureSchmidt(alpha), core.PolarCap(cap[1]), 200_000, seed=3)
    qref = orc.fidelity_moments(orc.correlations(rho), cap)
    yield ("simulate_qubit mean shifted by 7 standard errors",
           lambda: chk.check_qubit_report(rep, 200_000, rho, cap),
           lambda: chk.check_qubit_report(
               dataclasses.replace(rep, mean=_away(
                   rep.mean, qref.mean, qref.mean_se(200_000))), 200_000, rho, cap))
    yield ("simulate_qubit deviation shifted by 7 standard errors",
           lambda: None,
           lambda: chk.check_qubit_report(
               dataclasses.replace(rep, deviation=_away(
                   rep.deviation, qref.deviation, qref.deviation_se(200_000))),
               200_000, rho, cap))
    freq = list(rep.outcome_frequencies)
    freq[0], freq[2] = freq[2], freq[0]
    yield ("simulate_qubit outcome frequencies swapped",
           lambda: None,
           lambda: chk.check_qubit_report(
               dataclasses.replace(rep, outcome_frequencies=tuple(freq)), 200_000, rho, cap))
    wrep = sim.simulate_qubit(core.Werner(0.7), core.VonMisesFisher(5.0), 100_000, seed=4)
    yield ("Werner deviation made nonzero",
           lambda: chk.check_qubit_report(wrep, 100_000, orc.rho_werner(0.7), ("vmf", 5.0)),
           lambda: chk.check_qubit_report(dataclasses.replace(wrep, deviation=1e-4),
                                          100_000, orc.rho_werner(0.7), ("vmf", 5.0)))
    yield ("Werner mean moved off (1 + p)/2",
           lambda: None,
           lambda: chk.check_qubit_report(dataclasses.replace(wrep, mean=wrep.mean + 1e-9),
                                          100_000, orc.rho_werner(0.7), ("vmf", 5.0)))

    crep = sim.simulate_classical(core.VonMisesFisher(3.0), 200_000, seed=5)
    yield ("simulate_classical mean shifted by 7 standard errors",
           lambda: chk.check_classical_report(crep, 200_000, ("vmf", 3.0)),
           lambda: chk.check_classical_report(
               dataclasses.replace(crep, mean=_away(
                   crep.mean, orc.classical_fidelity(("vmf", 3.0)),
                   orc.classical_moments(("vmf", 3.0)).mean_se(200_000))),
               200_000, ("vmf", 3.0)))

    runs = sim.qubit_runs(core.PureSchmidt(alpha), core.PolarCap(cap[1]), 5000, seed=6)
    moved = list(runs)
    moved[7] = dataclasses.replace(
        moved[7], input_direction=core.BlochDirection(cap[1] + 0.01, 0.0))
    yield ("qubit_runs input moved outside the cap",
           lambda: chk.check_qubit_runs(runs, 5000, rho, cap),
           lambda: chk.check_qubit_runs(moved, 5000, rho, cap))

    t4 = q.theta4_for_fractional_info(0.7)
    yield ("theta4 cutoff off by 0.1%",
           lambda: chk.check_theta4(t4, 0.7),
           lambda: chk.check_theta4(t4 * 1.001, 0.7))

    w = (0.5, 0.3, 0.2)
    shared = q.QutritSharedState(0.5, 0.3)
    qrep = sim.simulate_qutrit(shared, t4, 20_000, seed=7)
    tref = orc.qutrit_fidelity_moments(w, t4)
    yield ("simulate_qutrit mean shifted by 7 standard errors",
           lambda: chk.check_qutrit_report(qrep, 20_000, w, t4),
           lambda: chk.check_qutrit_report(
               dataclasses.replace(qrep, mean=_away(
                   qrep.mean, tref.mean, tref.mean_se(20_000))),
               20_000, w, t4))
    est = q.qutrit_average_fidelity(shared, t4, method="mc", n_samples=20_000, seed=8)
    yield ("qutrit_average_fidelity estimate shifted by 7 standard errors",
           lambda: chk.check_qutrit_mc(est, 20_000, w, t4),
           lambda: chk.check_qutrit_mc(
               dataclasses.replace(est, estimate=_away(
                   est.estimate, tref.mean, tref.mean_se(20_000))),
               20_000, w, t4))
    eta3 = q.dimensional_advantage(3, 0.7, ensemble_size=2000, n_samples=20_000, seed=9)
    yield ("eta_3 shifted by 7 standard errors",
           lambda: chk.check_dimensional_advantage(eta3, 0.7, 2000),
           lambda: chk.check_dimensional_advantage(
               dataclasses.replace(eta3, estimate=_away(
                   eta3.estimate, 100.0 * orc.MEAN_CROSS_SUM_UNIFORM * 0.15 / 0.85,
                   eta3.std_error)), 0.7, 2000))

    qruns = sim.qutrit_runs(shared, t4, 3000, seed=10)
    outside = list(qruns)
    zz = 0.5 * math.cos(t4)
    outside[11] = dataclasses.replace(outside[11], input_amplitudes=(
        complex(math.sqrt(1.0 - zz * zz)), 0j, complex(zz)))
    yield ("one qutrit sample put outside the cap",
           lambda: chk.check_qutrit_runs(qruns, 3000, w, t4),
           lambda: chk.check_qutrit_runs(outside, 3000, w, t4))

    g = (0.1, 2.9, 40)
    _, sweep = _cli(tf, ["sweep", "--conc", "0.6", "--dist", "cap", "--grid",
                         "0.1:2.9:40"], path)
    rho_c = orc.rho_pure(0.5 * (1.0 - math.sqrt(1.0 - 0.36)))
    yield ("sweep CSV row dropped",
           lambda: chk.check_sweep(sweep, rho_c, "cap", g, False),
           lambda: chk.check_sweep(_drop_row(sweep, 17), rho_c, "cap", g, False))
    yield ("sweep D moved by 1e-9",
           lambda: None,
           lambda: chk.check_sweep(_csv_edit(sweep, 5, 2, repr(
               float(sweep.splitlines()[5].split(",")[2]) + 1e-9)), rho_c, "cap", g, False))
    _, wsweep = _cli(tf, ["sweep", "--family", "werner", "--p", "0.4", "--dist",
                          "uniform"], path)
    yield ("Werner sweep deviation made nonzero",
           lambda: chk.check_sweep(wsweep, orc.rho_werner(0.4), "uniform", None, True),
           lambda: chk.check_sweep(_csv_edit(wsweep, 1, 2, "1e-13"), orc.rho_werner(0.4),
                                   "uniform", None, True))

    gr = (0.2, 3.0, 30)
    _, res = _cli(tf, ["resources", "--dist", "cap", "--grid", "0.2:3.0:30",
                       "--c-target", "0.6", "--alpha", "0.2"], path)
    yield ("resources H set to 2 bits on an informative ensemble",
           lambda: chk.check_resources(res, "cap", gr, 0.6, 0.2),
           lambda: chk.check_resources(_csv_edit(res, 3, 2, "2"), "cap", gr, 0.6, 0.2))
    yield ("resources C_required nudged",
           lambda: None,
           lambda: chk.check_resources(_csv_edit(res, 20, 1, repr(
               float(res.splitlines()[20].split(",")[1]) + 1e-6)), "cap", gr, 0.6, 0.2))

    gf = (0.68, 0.95, 20)
    _, cmp_f = _cli(tf, ["compare", "--conc", "0.5", "--criterion", "classical-fidelity",
                         "--grid", "0.68:0.95:20"], path)
    yield ("sign of dD flipped",
           lambda: chk.check_compare(cmp_f, "classical-fidelity", gf, 0.5),
           lambda: chk.check_compare(_csv_edit(cmp_f, 4, 4, repr(
               -float(cmp_f.splitlines()[4].split(",")[4]))), "classical-fidelity", gf, 0.5))
    ga = (0.3, 1.5, 12)
    _, cmp_a = _cli(tf, ["compare", "--conc", "0.5", "--criterion", "mean-polar-angle",
                         "--grid", "0.3:1.5:12"], path)
    yield ("matched theta0* moved off its mean-angle target",
           lambda: chk.check_compare(cmp_a, "mean-polar-angle", ga, 0.5),
           lambda: chk.check_compare(_csv_edit(cmp_a, 6, 1, repr(
               float(cmp_a.splitlines()[6].split(",")[1]) + 1e-7)), "mean-polar-angle",
               ga, 0.5))

    _, grid = _cli(tf, ["qutrit", "--theta4", "0.9", "--points", "16"], path)
    yield ("qutrit simplex CSV row dropped",
           lambda: chk.check_qutrit_grid(grid, 16, 0.9),
           lambda: chk.check_qutrit_grid(_drop_row(grid, 40), 16, 0.9))

    _, eta2 = _cli(tf, ["qutrit", "--eta", "--dim", "2", "--info", "0.2", "--ensemble",
                        "20000", "--n", "1000", "--seed", "3"], path)
    dim, eta, se, *_ = (float(x) for x in eta2.splitlines()[1].split(","))
    yield ("eta_2 shifted by 7 standard errors",
           lambda: chk.check_eta2(eta2, 0.2, 20000, 1000),
           lambda: chk.check_eta2(_csv_edit(eta2, 1, 1, repr(_away(
               eta, 100.0 * (1.0 - 0.8) / 0.8 * orc.MEAN_CONCURRENCE_UNIFORM, se))),
               0.2, 20000, 1000))

    code, report = _cli(tf, ["verify", "--quick", "--seed", "7"], path)
    yield ("verify line turned to FAIL",
           lambda: chk.check_verify(code, report, spans.VERIFY_CHECKS),
           lambda: chk.check_verify(code, report.replace("[PASS] qutrit-block",
                                                         "[FAIL] qutrit-block"),
                                    spans.VERIFY_CHECKS))
    yield ("verify I_f(pi/4) misreported",
           lambda: None,
           lambda: chk.check_verify(code, report.replace("I_f(pi/4) = 0.16",
                                                         "I_f(pi/4) = 0.17"),
                                    spans.VERIFY_CHECKS))

    tracer = spans.Tracer()
    tracer.install(tf, modules)
    try:
        sim.simulate_qubit(core.Werner(0.5), core.Uniform(), 300_000, seed=11)
    finally:
        tracer.uninstall()

    def totals(span_list):
        bad = spans.sample_total_mismatches(span_list)
        if bad:
            raise chk.CheckError("; ".join(bad))
    sampler = next(i for i, s in enumerate(tracer.spans)
                   if s[2] == "distributions.sample_directions")
    yield ("sampler span dropped from the sampled total",
           lambda: totals(tracer.spans),
           lambda: totals(tracer.spans[:sampler] + tracer.spans[sampler + 1:]))


def _consistency(tf) -> list[str]:
    out = []
    with open(os.path.join(os.getcwd(), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    listed = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    if listed != list(spans.PER_LAYER):
        out.append("BENCHMARK.json per_layer differs from spans.PER_LAYER")
    if tuple(tf.verify.CHECK_NAMES) != spans.VERIFY_CHECKS:
        out.append(f"telefid registers verify checks {tf.verify.CHECK_NAMES}, "
                   f"spans.VERIFY_CHECKS lists {spans.VERIFY_CHECKS}")
    return out


def main() -> int:
    os.environ.pop("TELEFID_THREADS", None)
    tf, modules = _import_telefid(os.getcwd())
    scratch = os.path.join(HERE, "out")
    os.makedirs(scratch, exist_ok=True)
    bad = _consistency(tf)
    for name, real, perturbed in cases(tf, modules, scratch):
        try:
            real()
        except chk.CheckError as exc:
            bad.append(f"{name}: the real output fails: {exc}")
            continue
        try:
            perturbed()
        except chk.CheckError as exc:
            print(f"rejects  {name}: {exc}")
        else:
            bad.append(f"{name}: the perturbed output passes")
    for b in bad:
        print(f"PROBLEM  {b}")
    print("self-test passed" if not bad else f"self-test: {len(bad)} problem(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
