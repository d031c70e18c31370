"""Benchmark launcher for the armformer package under ``src/``.

    python3 perfbench/run.py --workload infer-640 --seed 0 --seconds 30 --trace 0

Runs one workload, closed loop with one caller, in this process.  With
``--trace 0`` it reports the end-to-end metrics listed in BENCHMARK.json, with
``--trace 1`` the per-layer ones.  Human-readable lines come first; the last
line of standard output is one JSON object.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
# Set-up passes per run, each with an import in a fresh interpreter.  The first
# comes before the timed loop, the rest at even intervals through it, so that
# setup_s samples the host over the whole run, as the latency does.
SETUP_PASSES = 16
# One BLAS thread: on a shared 2-vCPU host a second thread gains about 10% on
# infer-640 but widens the run-to-run spread, and runs compare across machines.
BLAS_THREADS = 1


def configure_process() -> None:
    """Pin the BLAS thread count and import the package from this checkout only.

    Must run before numpy is imported.
    """
    sys.dont_write_bytecode = True
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (ROOT / "src" / "armformer" / "__init__.py").is_file():
        sys.exit(f"perfbench: no armformer package under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))


def _effective_blas_threads():
    """Ask the loaded OpenBLAS how many threads it will use (None if unknown)."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def environment(seed: int) -> dict:
    import numpy as np
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "blas_threads_effective": _effective_blas_threads(),
            "seed": seed}


@contextmanager
def scratch_dir():
    """A fresh directory inside the checkout, removed with everything in it."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass


def import_seconds() -> float:
    """Time ``import numpy, armformer`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import numpy, armformer; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    return float(subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                                capture_output=True, text=True).stdout)


def _median_ms(seconds: list[float]) -> float:
    return statistics.median(seconds) * 1000.0


def tail_lines(seconds: list[float]) -> list[str]:
    """p90 and p99 latency, each only where at least ten samples lie beyond it."""
    lines = []
    for p in (90, 99):
        if len(seconds) * (100 - p) / 100 >= 10:
            ms = statistics.quantiles(seconds, n=100)[p - 1] * 1000.0
            lines.append(f"latency_ms_p{p} = {ms:.6g} ms")
        else:
            lines.append(f"latency_ms_p{p} = not reported ({len(seconds)} samples leave "
                         f"fewer than ten beyond it)")
    return lines


def run(args) -> int:
    from tracer import Tracer
    from workloads import REFERENCE_PATH, TOLERANCE, WORKLOADS, compare_digest

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment(args.seed)
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload={args.workload} seconds={args.seconds} trace={args.trace}")
    import_s: list[float] = []
    setup_s: list[float] = []

    def set_up(wl) -> float:
        """One set-up pass; returns the seconds it took, import included."""
        t0 = time.perf_counter()
        if not args.trace:
            import_s.append(import_seconds())
        with tracer if args.trace else nullcontext():  # records the data layer
            t = time.perf_counter()
            wl.setup()
            setup_s.append(time.perf_counter() - t)
        return time.perf_counter() - t0

    with scratch_dir() as workdir:
        tracer = Tracer()
        wl = WORKLOADS[args.workload](args.seed, workdir, tracer)
        set_up(wl)
        (workdir / "setup").mkdir()

        def set_up_again() -> float:  # a fresh instance, so the timed one is left as it is
            return set_up(WORKLOADS[args.workload](args.seed, workdir / "setup", tracer))

        problems: list[str] = []
        attempted, failed = 1, 0
        # The reference probe doubles as the warm-up operation.
        try:
            reference = json.loads(REFERENCE_PATH.read_text())[args.workload]
            worst = compare_digest(wl.probe(), reference)
            print(f"check reference probe: max scaled difference {worst:.3g}")
            if not worst <= TOLERANCE:
                failed += 1
                problems.append(f"reference probe differs by {worst:.3g}")
        except Exception as exc:  # a failed operation is counted; the run goes on
            failed += 1
            problems.append(f"reference probe raised {type(exc).__name__}: {exc}")

        check = None
        if args.trace:
            check = wl.traced_forward_check()
            print(f"check traced forward bit-identical to model(x): {check.identical}")
            if not check.identical:
                problems.append("traced forward differs from model(x)")

        untraced: list[float] = []
        traced: list[float] = []
        k = 0
        paused = 0.0  # set-up passes inside the loop
        start = time.perf_counter()
        while time.perf_counter() - start - paused < args.seconds or (args.trace and k < 2):
            is_traced = bool(args.trace) and k % 2 == 0
            try:
                lat = wl.run_ops(k, is_traced)
            except Exception as exc:  # a failed operation is counted; the run goes on
                attempted += 1
                failed += 1
                problems.append(f"operation {k} raised {type(exc).__name__}: {exc}")
            else:
                attempted += len(lat)
                (traced if is_traced else untraced).extend(lat)
            k += 1
            elapsed = time.perf_counter() - start - paused
            while (len(setup_s) < SETUP_PASSES
                   and elapsed >= len(setup_s) * args.seconds / SETUP_PASSES):
                paused += set_up_again()
        loop_s = time.perf_counter() - start - paused
        problems += wl.finish()
        failed += wl.failed_ops
        problems += wl.problems
        while len(setup_s) < SETUP_PASSES:  # a loop shorter than its operations
            set_up_again()

    if args.trace:
        values = trace_metrics(wl, tracer, check, traced, untraced)
        names = spec["per_layer"]
        if values["profiler.mac_rows_mismatched"]:
            problems.append("executed MACs differ from count_flops")
    for p in problems:
        print(f"FAILED: {p}")
    print(f"error_rate = {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    if not args.trace:
        values = {
            "latency_ms_p50": _median_ms(untraced),
            # every image the timed loop completed, over its wall time less set-up passes
            "images_per_s": wl.images_per_op * len(untraced) / loop_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "setup_s": statistics.median(import_s) + statistics.median(setup_s),
        }
        names = spec["end_to_end"]
        print(f"samples = {len(untraced)} operations of {wl.images_per_op} image(s)")
        q1, _, q3 = statistics.quantiles(untraced, n=4) if len(untraced) > 1 else untraced * 3
        print(f"latency_ms quartiles = {q1 * 1000:.6g} / {q3 * 1000:.6g} ms")
        print("\n".join(tail_lines(untraced)))
        print("setup: imports " + ", ".join(f"{s:.4f}" for s in import_s)
              + " s; set-up passes " + ", ".join(f"{s:.4f}" for s in setup_s) + " s")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    if not args.trace:
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def trace_metrics(wl, tracer, check, traced, untraced) -> dict:
    """Per-layer metrics per traced operation, plus the printed trace report."""
    from armformer.profiler import count_flops
    report = tracer.report(len(traced), wl.images_per_op, SETUP_PASSES,
                           count_flops(wl.model).breakdown, check)
    print(report.text)
    values = report.values
    overhead = _median_ms(traced) - _median_ms(untraced)
    values["trace.overhead_ms"] = overhead
    print(f"tracing overhead: {overhead:.4g} ms per operation "
          f"({100 * overhead / _median_ms(untraced):.3g}% of {_median_ms(untraced):.6g} ms; "
          f"{len(traced)} traced vs {len(untraced)} untraced operations)")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("infer-640", "train-128"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    configure_process()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
