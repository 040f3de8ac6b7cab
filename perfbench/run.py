"""shapdec benchmark: one workload, one seed, one run.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: housing-linear-gaussian, fire-forest-copula, cli-explain-bridge
(see README.md). The package is imported from ``src/`` of the checkout;
without it the run fails. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``. Progress goes to standard error.
"""

from __future__ import annotations

import os

# The benchmark's matrices are at most 13 x 13 on a 2-CPU machine: pin BLAS
# and OpenMP to one thread in this process and every process it starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _import_package():
    """Put the checkout's ``src`` first on the path and import shapdec from
    it; exit with code 2 if the checkout has no package source."""
    if not (SRC / "shapdec" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import shapdec

    if Path(shapdec.__file__).resolve().parent != (SRC / "shapdec").resolve():
        print(f"error: shapdec imported from {shapdec.__file__}", file=sys.stderr)
        raise SystemExit(2)


def _metrics(kind: str, values: dict) -> dict:
    """The metrics BENCHMARK.json declares under ``kind``, in its order and
    with its units; a missing or undeclared value is an error."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    names = [m["name"] for m in declared]
    if set(names) != set(values):
        raise SystemExit(f"error: metrics {sorted(set(names) ^ set(values))} do not match {kind}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from tracer import Tracer

    out_root = HERE / "out"
    out_dir = out_root / f"{workload_name}-{seed}-{os.getpid()}"
    tracer = None
    if trace:
        import shapdec.cli  # noqa: F401  (install wraps every loaded module)

        tracer = Tracer()
        tracer.install()
        workloads.track_external_models()
    work = workloads.WORKLOADS[workload_name](ROOT, seed, out_dir, tracer)
    if trace and isinstance(work, workloads.CliExplainBridge):
        work.in_process = True
    try:
        progress = ""
        if trace:
            tracer.enabled = True
            work.setup()
            tracer.enabled = False
            fit_s = tracer.total_s("models.fit")  # one set-up
            tracer.reset()
            outcomes, times, cal = work.loop(seconds, alternate_trace=True)
            rows_traced = sum(1 for _, traced in times if traced)
            layer = tracer.summary(rows_traced)
            tracer.save(out_root / f"trace-{workload_name}-{seed}.npz")
        else:
            setup_s, setup_wall = work.timed_setup()
            progress = f"wall set-up p50 {statistics.median(setup_wall):.4f} s, "
            outcomes, times, cal = work.loop(seconds)
            peak = work.peak_rss_mb()
        rows_timed = len(outcomes)
        work.complete(outcomes)
        reference_ok = work.reference()
        if reference_ok:
            work.check_rows(outcomes)
            errors, errors_ok = work.error_metrics(outcomes)
        else:  # nothing to check against: the run is incorrect, every row failed
            errors, errors_ok = dict.fromkeys(("phi_rmse", "phi_int_rmse", "phi_dep_rmse"), 0.0), False
            for o in outcomes:
                o.ok = False
    finally:
        work.close()
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(out_dir, ignore_errors=True)

    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if not o.ok)
    correct = reference_ok and errors_ok
    row_times = [t for t, _ in times]
    ref_times = workloads.reference_seconds(row_times, cal, work.row_ref_s)
    print(
        f"{workload_name} seed={seed}: {rows_timed} timed rows, {attempted} checked, "
        f"{failed} failed; wall row p50 {statistics.median(row_times):.4f} s, {progress}kernel p50 "
        f"{statistics.median(cal):.5f} s; check figures "
        f"{ {k: round(float(v), 5) for k, v in work.figures.items()} }",
        file=sys.stderr,
    )
    if trace:
        traced = [t for t, on in times if on]
        plain = [t for t, on in times if not on]
        layer["models.fit_s"] = fit_s
        layer["cli.import_s"] = work.bare_import_s() if workload_name == "cli-explain-bridge" else 0.0
        layer["trace.rows"] = float(len(traced))
        layer["trace.row_s_p50"] = statistics.median(traced) if traced else 0.0
        layer["trace.overhead_s"] = (
            statistics.median(traced) - statistics.median(plain) if traced and plain else 0.0
        )
        metrics = _metrics("per_layer", layer)
    else:
        metrics = _metrics(
            "end_to_end",
            {
                "setup_s": setup_s,
                "row_s_p50": statistics.median(ref_times),
                "rows_per_s": len(ref_times) / sum(ref_times),
                "peak_rss_mb": peak,
                **errors,
            },
        )
    return {"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops and waits for the processes it started
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    _import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
