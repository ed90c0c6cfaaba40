"""Command-line front end: figure-data sweeps as CSV/JSON, plus self-checks.

Subcommands:
  sweep      fidelity moments and benchmarks along a distribution grid
  resources  entanglement and classical-communication cost along a grid
  compare    cap-vs-vMF gaps under a matching criterion
  qutrit     restricted-vs-uniform qutrit gain over the Schmidt simplex
  verify     run the self-check suite (exit 1 on any failure)

Output is data only; identical config and seed give byte-identical files.
Angles accept pi literals ("pi", "pi/3", "2*pi/5").  Exit codes: 0 ok,
1 failed verification, 2 usage error.
"""
from __future__ import annotations

import argparse
import ast
import math
import operator
import sys

import numpy as np

from .core import (BellDiagonal, InputDistribution, PolarCap, PureSchmidt,
                   StateFamily, Uniform, VonMisesFisher, Werner)
from .compare import MatchCriterion, sweep_comparison
from .fidelity import classical_fidelity, fidelity_stats, prior_information
from .qutrit import (QutritSharedState, _cross_sum, dimensional_advantage,
                     participation_moment)
from .resources import (bell_probabilities_averaged, cc_cost,
                        required_entanglement)
from .verify import run_verification

_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv,
           ast.Pow: operator.pow}


def parse_number(text: str) -> float:
    """Arithmetic literal with pi: "0.3", "pi", "2*pi/5", "-pi/4"."""
    def walk(node):
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name) and node.id == "pi":
            return math.pi
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return _BINOPS[type(node.op)](walk(node.left), walk(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -walk(node.operand)
        raise ValueError(f"unsupported expression {text!r}")
    try:
        value = walk(ast.parse(text.strip(), mode="eval"))
    except (SyntaxError, ArithmeticError, RecursionError) as exc:
        raise ValueError(f"bad number {text!r}: {exc}") from None
    if not isinstance(value, float) or not math.isfinite(value):
        raise ValueError(f"bad number {text!r}: not a finite real number")
    return value


def parse_grid(text: str) -> np.ndarray:
    """start:stop:points, endpoints accepting pi literals."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid {text!r} is not start:stop:points")
    start, stop = parse_number(parts[0]), parse_number(parts[1])
    points = int(parts[2])
    if points < 1:
        raise ValueError("grid needs at least one point")
    return np.linspace(start, stop, points)


def _build_family(args, parser) -> StateFamily:
    if args.family == "pure":
        if args.conc is None:
            parser.error("--family pure needs --conc")
        return PureSchmidt.from_concurrence(args.conc)
    if args.family == "werner":
        if args.p is None:
            parser.error("--family werner needs --p")
        return Werner(args.p)
    if args.weights is None:
        parser.error("--family bd needs --weights w1,w2,w3,w4")
    return BellDiagonal(tuple(parse_number(w) for w in args.weights.split(",")))


def _dist_grid(args, parser) -> tuple[list[InputDistribution], np.ndarray]:
    if args.dist == "uniform":
        return [Uniform()], np.array([0.0])
    if args.grid is None:
        parser.error(f"--dist {args.dist} needs --grid start:stop:points")
    grid = parse_grid(args.grid)
    if args.dist == "cap":
        # theta0 = 0 is an empty cap; nudge so 0:pi grids work as intended
        grid = np.where(grid == 0.0, 1e-9, grid)
        return [PolarCap(float(v)) for v in grid], grid
    return [VonMisesFisher(float(v)) for v in grid], grid


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _emit(columns, rows, args) -> None:
    if args.format == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_fmt(x) for x in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        import json
        payload = {"columns": list(columns),
                   "rows": [[float(_fmt(x)) if isinstance(x, float) else x
                             for x in row] for row in rows]}
        text = json.dumps(payload, indent=2) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def cmd_sweep(args, parser) -> int:
    state = _build_family(args, parser)
    dists, grid = _dist_grid(args, parser)
    rows = []
    for v, dist in zip(grid, dists):
        st = fidelity_stats(state, dist)
        info = prior_information(dist)
        rows.append((float(v), st.mean, st.deviation, classical_fidelity(dist),
                     info.absolute, info.fractional))
    _emit(("param", "F", "D", "F_cl", "I", "I_f"), rows, args)
    return 0


def cmd_resources(args, parser) -> int:
    dists, grid = _dist_grid(args, parser)
    rows = []
    for v, dist in zip(grid, dists):
        c_req = required_entanglement(args.c_target, dist)
        h = cc_cost(bell_probabilities_averaged(args.alpha, dist))
        rows.append((float(v), c_req, h))
    _emit(("param", "C_required", "H_bits"), rows, args)
    return 0


def cmd_compare(args, parser) -> int:
    state = _build_family(args, parser)
    criterion = MatchCriterion(args.criterion)
    targets = [float(t) for t in parse_grid(args.grid)]
    rows = [(r.matched_value, r.theta0_star, r.kappa_star, r.delta_f, r.delta_d)
            for r in sweep_comparison(state, criterion, targets)]
    _emit(("matched_value", "theta0_star", "kappa_star", "delta_F", "delta_D"),
          rows, args)
    return 0


def cmd_qutrit(args, parser) -> int:
    if args.eta:
        rep = dimensional_advantage(args.dim, args.info,
                                    ensemble_size=args.ensemble,
                                    n_samples=args.n, seed=args.seed,
                                    convention=args.convention)
        _emit(("dim", "eta_percent", "std_error", "ensemble_size", "n_samples"),
              [(args.dim, rep.estimate, rep.std_error, rep.n_samples,
                args.n)], args)
        return 0
    theta4 = parse_number(args.theta4)
    m_r = participation_moment(theta4)
    m_u = participation_moment(math.pi)
    n = args.points
    if n < 1:
        raise ValueError("--points must be >= 1")
    rows = []
    for i in range(n):
        a = (i + 0.5) / n
        for j in range(n):
            b = (j + 0.5) / n
            if a + b > 1.0:
                continue
            k = _cross_sum(QutritSharedState(a, b))
            f_r = k + (1.0 - k) * m_r
            f_u = k + (1.0 - k) * m_u
            rows.append((a, b, f_r, f_u, f_r - f_u))
    _emit(("a", "b", "F_restricted", "F_uniform", "delta_F"), rows, args)
    return 0


def cmd_verify(args, parser) -> int:
    ok, text = run_verification(seed=args.seed, quick=args.quick,
                                timings=sys.stderr if args.timings else None)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return 0 if ok else 1


def _add_output_flags(sub) -> None:
    sub.add_argument("--out", default="-", help="output path (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--seed", type=int, default=0)


def _add_family_flags(sub) -> None:
    sub.add_argument("--family", choices=("pure", "werner", "bd"), default="pure")
    sub.add_argument("--conc", type=float, help="concurrence for --family pure")
    sub.add_argument("--p", type=float, help="singlet weight for --family werner")
    sub.add_argument("--weights", help="w1,w2,w3,w4 for --family bd")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="telefid",
        description="Teleportation fidelity moments under non-uniform input "
                    "ensembles: sweeps, resource costs, cap-vs-vMF gaps, "
                    "qutrit comparisons, self-checks.")
    subs = parser.add_subparsers(dest="command", required=True)

    sw = subs.add_parser("sweep", help="fidelity moments along a parameter grid")
    _add_family_flags(sw)
    sw.add_argument("--dist", choices=("cap", "vmf", "uniform"), required=True)
    sw.add_argument("--grid", help="start:stop:points; pi literals ok; a cap "
                                   "start of 0 is nudged to 1e-9")
    _add_output_flags(sw)
    sw.set_defaults(func=cmd_sweep)

    rs = subs.add_parser("resources", help="entanglement and CC cost sweeps")
    rs.add_argument("--dist", choices=("cap", "vmf", "uniform"), required=True)
    rs.add_argument("--grid", help="start:stop:points; pi literals ok; a cap "
                                   "start of 0 is nudged to 1e-9")
    rs.add_argument("--c-target", dest="c_target", type=float, required=True,
                    help="uniform-ensemble concurrence to match")
    rs.add_argument("--alpha", type=float, default=0.25,
                    help="Schmidt weight of the resource (0 to 1/2)")
    _add_output_flags(rs)
    rs.set_defaults(func=cmd_resources)

    cp = subs.add_parser("compare", help="cap-vs-vMF fidelity gaps")
    _add_family_flags(cp)
    cp.add_argument("--criterion", choices=tuple(c.value for c in MatchCriterion),
                    default=MatchCriterion.CLASSICAL_FIDELITY.value)
    cp.add_argument("--grid", required=True,
                    help="matched-value grid start:stop:points")
    _add_output_flags(cp)
    cp.set_defaults(func=cmd_compare)

    qt = subs.add_parser("qutrit", help="restricted-vs-uniform qutrit gain")
    qt.add_argument("--theta4", default="pi/4", help="latitude cutoff (pi ok)")
    qt.add_argument("--points", type=int, default=50,
                    help="grid resolution per Schmidt axis")
    qt.add_argument("--eta", action="store_true",
                    help="estimate the percentage gain eta_d instead")
    qt.add_argument("--dim", type=int, choices=(2, 3), default=2)
    qt.add_argument("--info", type=float, default=0.16,
                    help="fractional prior information for --eta")
    qt.add_argument("--ensemble", type=int, default=10 ** 4)
    qt.add_argument("--n", type=int, default=10 ** 5,
                    help="unused: eta_d takes F_cl in closed form (must be "
                         ">= 1 for --dim 3)")
    qt.add_argument("--convention", choices=("uniform", "haar", "maximal"),
                    default="uniform")
    _add_output_flags(qt)
    qt.set_defaults(func=cmd_qutrit)

    vf = subs.add_parser("verify", help="run the self-check suite")
    vf.add_argument("--quick", action="store_true",
                    help="smaller Monte Carlo sizes, same checks")
    vf.add_argument("--timings", action="store_true",
                    help="print each check's wall and CPU seconds to stderr")
    _add_output_flags(vf)
    vf.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
