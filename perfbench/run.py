"""telefid benchmark: one workload, timed in whole rounds, with its outputs checked.

    python3 perfbench/run.py --workload qubit-sim --seed 1 --seconds 15 --trace 0

Run it from the root of a telefid checkout; it imports the package from
./src.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer ones:
the traced run alternates untraced and traced rounds and derives the
per-layer figures from the spans of the traced ones.  The line before it
holds the run's metadata; both, and the spans of a traced run, are also
written under perfbench/out/.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

_T0 = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))


def _process_age() -> float:
    """Seconds since this process started, interpreter start-up included."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T0


def _blas_threads() -> dict:
    """OpenBLAS's own thread count, read from the loaded library, and the env knobs."""
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS") if k in os.environ}
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = sorted({ln.split()[-1] for ln in fh
                           if "openblas" in ln.lower() and ".so" in ln})
        for lib in libs:
            dll = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(dll, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return {"openblas_threads": fn(), "library": os.path.basename(lib),
                            "env": env}
    except OSError:
        pass
    return {"openblas_threads": None, "env": env}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _import_telefid(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "telefid", "__init__.py")):
        sys.exit(f"run.py: no src/telefid under {root}; run it from the root of a "
                 f"telefid checkout")
    sys.path.insert(0, src)
    import telefid
    from telefid import (cli, compare, core, distributions, fidelity, qutrit,
                         resources, sim, verify)
    if not os.path.abspath(telefid.__file__).startswith(src + os.sep):
        sys.exit(f"run.py: imported telefid from {telefid.__file__}, not from {src}")
    modules = dict(cli=cli, compare=compare, core=core, distributions=distributions,
                   fidelity=fidelity, qutrit=qutrit, resources=resources, sim=sim,
                   verify=verify)
    return telefid, modules


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # measure the program's own default thread count
    os.environ.pop("TELEFID_THREADS", None)
    root = os.getcwd()
    tf, modules = _import_telefid(root)

    import numpy
    import scipy

    import checks
    from spans import Tracer, layer_metrics, sample_total_mismatches
    from workloads import OpFailed

    out_dir = os.path.join(HERE, "out")
    scratch = os.path.join(out_dir, f"scratch-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](tf, args.seed, scratch)
        workload.warm_up()
        setup_s = _process_age()

        tracer = Tracer() if args.trace else None
        walls, cpus, traced = [], [], []
        attempted = failed = 0
        problems: list[str] = []
        started = time.perf_counter()
        r = 0
        while True:
            ops = workload.round_ops(r)
            tracing = tracer is not None and r % 2 == 1
            if tracing:
                tracer.install(tf, modules)
            results = []
            gc.collect()  # the previous round's garbage is not this round's cost
            c0, w0 = time.process_time(), time.perf_counter()
            for op in ops:
                try:
                    results.append((True, op.call()))
                except Exception as exc:  # a failed operation; the run goes on
                    results.append((False, exc))
            w1, c1 = time.perf_counter(), time.process_time()
            if tracing:
                tracer.uninstall()
            walls.append(w1 - w0)
            cpus.append(c1 - c0)
            traced.append(tracing)
            for op, (ok, out) in zip(ops, results):
                attempted += op.count
                if not ok:
                    failed += op.count
                    if r == 0:
                        kind = "" if isinstance(out, OpFailed) else f"{type(out).__name__}: "
                        print(f"failed: {op.label}: {kind}{out}", file=sys.stderr)
                    continue
                try:
                    rows = op.check(out)
                except checks.CheckError as exc:
                    problems.append(f"{op.label}: {exc}")
                    continue
                if tracing and isinstance(rows, int):
                    tracer.count("cli.rows_written", rows)
            r += 1
            if time.perf_counter() - started >= args.seconds and (
                    tracer is None or r >= 2):
                break

        # Per-round means: the time of the timed body over the rounds run.  On
        # a shared 2-vCPU VM the rounds fall into fast and slow phases, and a
        # mean moves with their mix where a median jumps between them.
        plain = [w for w, t in zip(walls, traced) if not t]
        plain_cpu = [c for c, t in zip(cpus, traced) if not t]
        if tracer is None:
            metrics = {
                "wall_s": {"value": statistics.fmean(plain), "unit": "s"},
                "cpu_s": {"value": statistics.fmean(plain_cpu), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024.0, "unit": "MB"},
                "setup_s": {"value": setup_s, "unit": "s"},
            }
        else:
            with_trace = [w for w, t in zip(walls, traced) if t]
            problems += sample_total_mismatches(tracer.spans)
            metrics = layer_metrics(tracer.spans, tracer.counts, len(with_trace),
                                    statistics.fmean(with_trace) - statistics.fmean(plain))

        for p in problems[:20]:
            print(f"check failed: {p}", file=sys.stderr)
        result = {"correct": not problems, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
        meta = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "rounds": r, "round_wall_s": walls, "round_cpu_s": cpus,
            "round_traced": traced, "check_failures": len(problems),
            "cores": os.cpu_count(), "affinity_cores": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": _blas_threads(),
            "telefid_threads": os.environ.get("TELEFID_THREADS"),
        }
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        with open(os.path.join(out_dir, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "result": result}, fh, indent=1)
        if tracer is not None:
            tracer.write(os.path.join(out_dir, f"spans-{tag}.json"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
