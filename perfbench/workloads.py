"""The four workloads: inputs drawn from the seed, one round of operations, checks.

A round is a fixed list of operations; every run attempts whole rounds, so
the share of failed operations is the same in every run.  Round r draws its
inputs from numpy.random.default_rng((seed, r)), so a seed fixes every
input of a run and no two rounds of a run repeat an input.  The program is
called through module attributes (`telefid.sim.simulate_qubit`, ...) at
call time, so a traced round sees the calls.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks as chk
import oracles as orc
from spans import VERIFY_CHECKS


@dataclass
class Op:
    """One call into a public entry point (a verify run stands for its checks)."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], object]
    count: int = 1


class OpFailed(Exception):
    pass


def _dist(tf, ens):
    if ens[0] == "cap":
        return tf.core.PolarCap(ens[1])
    if ens[0] == "vmf":
        return tf.core.VonMisesFisher(ens[1])
    return tf.core.Uniform()


def _num(x: float) -> str:
    return repr(float(x))


class Workload:
    def __init__(self, tf, seed: int, scratch: str) -> None:
        self.tf = tf
        self.seed = seed
        self.scratch = scratch

    def rng(self, r: int) -> np.random.Generator:
        return np.random.default_rng((self.seed, r))

    def warm_up(self) -> None:
        raise NotImplementedError

    def round_ops(self, r: int) -> list[Op]:
        raise NotImplementedError

    def _cli(self, argv: list[str]):
        """cli.main in-process; exit code 2 is a failed operation."""
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = self.tf.cli.main(argv)
        if code == 2:
            raise OpFailed(err.getvalue().strip())
        return code

    def _read(self, path: str) -> str:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        os.remove(path)
        return text


class QubitSim(Workload):
    """simulate_qubit over four resources x five ensembles, plus the baselines."""

    N = 200_000            # two chunks of the simulator
    N_CLASSICAL = 500_000
    N_RUNS = 20_000

    def warm_up(self) -> None:
        sim, core = self.tf.sim, self.tf.core
        sim.simulate_qubit(core.PureSchmidt(0.2), core.PolarCap(1.0), 1000, seed=1)
        sim.simulate_classical(core.PolarCap(1.0), 1000, seed=1)
        sim.qubit_runs(core.PureSchmidt(0.2), core.PolarCap(1.0), 100, seed=1)

    def round_ops(self, r: int) -> list[Op]:
        rng = self.rng(r)
        core, sim = self.tf.core, self.tf.sim
        alpha, p = rng.uniform(0.02, 0.45), rng.uniform(0.2, 0.95)
        w_bd, w_t = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
        t = orc.correlations(orc.rho_bell_diagonal(w_t))
        states = [
            (core.PureSchmidt(alpha), orc.rho_pure(alpha)),
            (core.Werner(p), orc.rho_werner(p)),
            (core.BellDiagonal(w_bd), orc.rho_bell_diagonal(w_bd)),
            (core.CorrelationTensor(*t), orc.rho_tensor(t)),
        ]
        ensembles = [("cap", rng.uniform(0.1, 0.5)), ("cap", rng.uniform(2.0, 3.0)),
                     ("vmf", rng.uniform(0.05, 0.5)), ("vmf", rng.uniform(20.0, 200.0)),
                     ("uniform",)]
        seeds = iter(rng.integers(0, 2 ** 31, size=len(states) * len(ensembles) + 7))
        ops = []
        for fam, rho in states:
            for ens in ensembles:
                s = int(next(seeds))
                ops.append(Op(
                    f"simulate_qubit {fam} {ens}",
                    lambda fam=fam, ens=ens, s=s: sim.simulate_qubit(
                        fam, _dist(self.tf, ens), self.N, seed=s),
                    lambda rep, rho=rho, ens=ens: chk.check_qubit_report(
                        rep, self.N, rho, ens)))
        for ens in ensembles:
            s = int(next(seeds))
            ops.append(Op(
                f"simulate_classical {ens}",
                lambda ens=ens, s=s: sim.simulate_classical(
                    _dist(self.tf, ens), self.N_CLASSICAL, seed=s),
                lambda rep, ens=ens: chk.check_classical_report(rep, self.N_CLASSICAL, ens)))
        for (fam, rho), ens in ((states[0], ensembles[0]), (states[2], ensembles[3])):
            s = int(next(seeds))
            ops.append(Op(
                f"qubit_runs {fam} {ens}",
                lambda fam=fam, ens=ens, s=s: sim.qubit_runs(
                    fam, _dist(self.tf, ens), self.N_RUNS, seed=s),
                lambda runs, rho=rho, ens=ens: chk.check_qubit_runs(
                    runs, self.N_RUNS, rho, ens)))
        return ops


class QutritSim(Workload):
    """The qutrit simulator, MC fidelity, eta_3 and shot records, pi down to small cutoffs."""

    N = 40_000
    N_MC = 40_000
    ENSEMBLE = 4000
    N_ETA = 40_000
    N_RUNS = 10_000

    def warm_up(self) -> None:
        q, sim = self.tf.qutrit, self.tf.sim
        shared = q.QutritSharedState(0.5, 0.3)
        t4 = q.theta4_for_fractional_info(0.5)
        sim.simulate_qutrit(shared, t4, 1000, seed=1)
        q.qutrit_average_fidelity(shared, t4, method="mc", n_samples=1000, seed=1)
        q.dimensional_advantage(3, 0.5, ensemble_size=100, n_samples=1000, seed=1)
        sim.qutrit_runs(shared, t4, 100, seed=1)

    def round_ops(self, r: int) -> list[Op]:
        rng = self.rng(r)
        q, sim = self.tf.qutrit, self.tf.sim
        info_hi, info_mid = rng.uniform(0.55, 0.9), rng.uniform(0.1, 0.3)
        shares = []
        for w in rng.dirichlet(np.ones(3), size=7):
            a, b = float(w[0]), float(w[1])
            shares.append((q.QutritSharedState(a, b), (a, b, max(0.0, 1.0 - a - b))))
        seeds = [int(s) for s in rng.integers(0, 2 ** 31, size=7)]
        cut = {"pi": math.pi, "pi/2": 0.5 * math.pi}

        def theta4_op(key, info):
            def call():
                cut[key] = q.theta4_for_fractional_info(info)
                return cut[key]
            return Op(f"theta4_for_fractional_info({info!r})", call,
                      lambda t4: chk.check_theta4(t4, info))

        ops = [theta4_op("hi", info_hi), theta4_op("mid", info_mid)]
        for i, key in enumerate(("pi", "pi/2", "mid", "hi")):
            shared, w = shares[i]
            ops.append(Op(
                f"simulate_qutrit {w} {key}",
                lambda shared=shared, key=key, s=seeds[i]: sim.simulate_qutrit(
                    shared, cut[key], self.N, seed=s),
                lambda rep, w=w, key=key: chk.check_qutrit_report(rep, self.N, w, cut[key])))
        shared, w = shares[4]
        ops.append(Op(
            f"qutrit_average_fidelity mc {w}",
            lambda: q.qutrit_average_fidelity(shared, cut["hi"], method="mc",
                                              n_samples=self.N_MC, seed=seeds[4]),
            lambda est: chk.check_qutrit_mc(est, self.N_MC, w, cut["hi"])))
        ops.append(Op(
            f"dimensional_advantage(3, {info_hi!r})",
            lambda: q.dimensional_advantage(3, info_hi, ensemble_size=self.ENSEMBLE,
                                            n_samples=self.N_ETA, seed=seeds[5]),
            lambda est: chk.check_dimensional_advantage(est, info_hi, self.ENSEMBLE)))
        shared6, w6 = shares[6]
        ops.append(Op(
            f"qutrit_runs {w6}",
            lambda: sim.qutrit_runs(shared6, cut["hi"], self.N_RUNS, seed=seeds[6]),
            lambda runs: chk.check_qutrit_runs(runs, self.N_RUNS, w6, cut["hi"])))
        return ops


class ClosedForms(Workload):
    """The figure-data CLI in-process; no Monte Carlo sampling."""

    P_SWEEP = 400
    P_RESOURCES = 200
    P_ANGLE = 150
    P_FCL = 200
    QUTRIT_POINTS = 32     # a grid the simplex rule handles: a + b lands on 1 exactly
    ETA_ENSEMBLE = 100_000
    ETA_N = 1000

    def _out(self, r: int, i: int) -> str:
        return os.path.join(self.scratch, f"r{r}-{i}.csv")

    def warm_up(self) -> None:
        path = os.path.join(self.scratch, "warm-up.csv")
        for argv in (["sweep", "--conc", "0.5", "--dist", "cap", "--grid", "0.2:2:2"],
                     ["resources", "--dist", "vmf", "--grid", "0.5:5:2", "--c-target", "0.5"],
                     ["compare", "--conc", "0.5", "--criterion", "mean-polar-angle",
                      "--grid", "0.6:1.2:2"],
                     ["compare", "--conc", "0.5", "--grid", "0.7:0.9:2"],
                     ["qutrit", "--points", "2"],
                     ["qutrit", "--eta", "--dim", "2", "--ensemble", "10"]):
            self._cli(argv + ["--out", path])
        os.remove(path)

    def _cli_op(self, label, argv, path, check, count=1):
        return Op(label, lambda: self._cli(argv + ["--out", path]),
                  lambda code: check(self._read(path)), count)

    def round_ops(self, r: int) -> list[Op]:
        rng = self.rng(r)
        u = rng.uniform
        conc_sweep, conc_cmp = u(0.1, 0.95), u(0.1, 0.9)
        w_bd = rng.dirichlet(np.ones(4))
        p_w = u(0.05, 0.6)
        g_cap = (u(0.05, 0.4), u(2.2, 3.1), self.P_SWEEP)
        g_vmf = (u(0.01, 0.2), u(30.0, 300.0), self.P_SWEEP)
        res_cap = (u(0.05, 0.5), u(1.5, 3.1), self.P_RESOURCES)
        res_vmf = (u(0.01, 0.5), u(10.0, 100.0), self.P_RESOURCES)
        c_targets, alphas = u(0.3, 0.95, 2), u(0.05, 0.45, 2)
        g_angle = (u(0.2, 0.5), u(1.2, 1.55), self.P_ANGLE)
        g_fcl = (u(0.67, 0.70), u(0.90, 0.97), self.P_FCL)
        theta4 = u(0.2, 1.5)
        info = u(0.05, 0.4)
        eta_seed = int(rng.integers(0, 2 ** 31))
        alpha_sweep = 0.5 * (1.0 - math.sqrt(1.0 - conc_sweep ** 2))

        def grid(g):
            return f"{_num(g[0])}:{_num(g[1])}:{g[2]}"

        out = [self._out(r, i) for i in range(10)]
        return [
            self._cli_op("sweep pure cap",
                         ["sweep", "--family", "pure", "--conc", _num(conc_sweep),
                          "--dist", "cap", "--grid", grid(g_cap)], out[0],
                         lambda text: chk.check_sweep(text, orc.rho_pure(alpha_sweep),
                                                      "cap", g_cap, False)),
            self._cli_op("sweep bd vmf",
                         ["sweep", "--family", "bd", "--weights",
                          ",".join(_num(x) for x in w_bd), "--dist", "vmf",
                          "--grid", grid(g_vmf)], out[1],
                         lambda text: chk.check_sweep(text, orc.rho_bell_diagonal(w_bd),
                                                      "vmf", g_vmf, False)),
            self._cli_op("sweep werner uniform",
                         ["sweep", "--family", "werner", "--p", _num(p_w),
                          "--dist", "uniform"], out[2],
                         lambda text: chk.check_sweep(text, orc.rho_werner(p_w),
                                                      "uniform", None, True)),
            self._cli_op("resources cap",
                         ["resources", "--dist", "cap", "--grid", grid(res_cap),
                          "--c-target", _num(c_targets[0]), "--alpha", _num(alphas[0])],
                         out[3],
                         lambda text: chk.check_resources(text, "cap", res_cap,
                                                          c_targets[0], alphas[0])),
            self._cli_op("resources vmf",
                         ["resources", "--dist", "vmf", "--grid", grid(res_vmf),
                          "--c-target", _num(c_targets[1]), "--alpha", _num(alphas[1])],
                         out[4],
                         lambda text: chk.check_resources(text, "vmf", res_vmf,
                                                          c_targets[1], alphas[1])),
            self._cli_op("compare mean-polar-angle",
                         ["compare", "--family", "pure", "--conc", _num(conc_cmp),
                          "--criterion", "mean-polar-angle", "--grid", grid(g_angle)],
                         out[5],
                         lambda text: chk.check_compare(text, "mean-polar-angle",
                                                        g_angle, conc_cmp)),
            self._cli_op("compare classical-fidelity",
                         ["compare", "--family", "pure", "--conc", _num(conc_cmp),
                          "--criterion", "classical-fidelity", "--grid", grid(g_fcl)],
                         out[6],
                         lambda text: chk.check_compare(text, "classical-fidelity",
                                                        g_fcl, conc_cmp)),
            self._cli_op("qutrit simplex grid",
                         ["qutrit", "--theta4", _num(theta4), "--points",
                          str(self.QUTRIT_POINTS)], out[7],
                         lambda text: chk.check_qutrit_grid(text, self.QUTRIT_POINTS,
                                                            theta4)),
            # The README's own example; fails every time today (math domain
            # error on the simplex diagonal), whatever the seed.
            self._cli_op("qutrit --points 50",
                         ["qutrit", "--theta4", "pi/4", "--points", "50"], out[8],
                         lambda text: chk.check_qutrit_grid(text, 50, 0.25 * math.pi)),
            self._cli_op("qutrit --eta --dim 2",
                         ["qutrit", "--eta", "--dim", "2", "--info", _num(info),
                          "--ensemble", str(self.ETA_ENSEMBLE), "--n", str(self.ETA_N),
                          "--seed", str(eta_seed)], out[9],
                         lambda text: chk.check_eta2(text, info, self.ETA_ENSEMBLE,
                                                     self.ETA_N)),
        ]


class VerifyQuick(Workload):
    """telefid verify --quick through cli.main: the self-check suite."""

    def warm_up(self) -> None:
        path = os.path.join(self.scratch, "warm-up.csv")
        self._cli(["sweep", "--conc", "0.5", "--dist", "cap", "--grid", "0.2:2:2",
                   "--out", path])
        os.remove(path)
        self.tf.verify.run_check("golden-thresholds", seed=1, quick=True)

    def round_ops(self, r: int) -> list[Op]:
        seed = self.seed + 1000 * r
        path = os.path.join(self.scratch, f"verify-{r}.txt")
        return [Op(f"verify --quick --seed {seed}",
                   lambda: self._cli(["verify", "--quick", "--seed", str(seed),
                                      "--out", path]),
                   lambda code: chk.check_verify(code, self._read(path), VERIFY_CHECKS),
                   count=len(VERIFY_CHECKS))]


WORKLOADS = {
    "qubit-sim": QubitSim,
    "qutrit-sim": QutritSim,
    "closed-forms": ClosedForms,
    "verify-quick": VerifyQuick,
}
