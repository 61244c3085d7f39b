"""One workload process: import the package, signal readiness, run the
workload's operations in a closed loop, print one JSON result line.

Usage: worker.py ROOT WORKLOAD SEED MODE SECONDS

MODE is one of
  setup   time the reference loop once the CLI is importable and its
          parser is built, print that time, and exit;
  plain   untraced: cycle through the workload's operations until SECONDS
          have passed and each has run once, recording each operation's
          wall time, and timing the reference loop (``reference.py``)
          before the first operation and then at least every
          ``REF_EVERY_S`` seconds, between operations;
  spans   one pass with every layer wrapped by the tracer, timing the
          reference loop as in plain mode;
  memory  one pass under tracemalloc, recording the traced peak.

The "ready" line goes to stdout once ``starchip.cli`` is imported and
``build_parser()`` has returned; the parent times set-up up to that line.
"""
from __future__ import annotations

import contextlib
import gc
import io
import itertools
import json
import resource
import sys
import time
from pathlib import Path


REF_EVERY_S = 0.5
"""The reference loop is timed after an operation once this long has passed
since its last timing, so short operations do not pay for it each time."""


def run_op(cli, op) -> tuple[float, list[str]]:
    """Run one CLI call with stdout captured; return its wall time and the
    problems its output check found."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    t0 = time.perf_counter()
    crash = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except SystemExit as e:
        code = e.code
    except Exception as e:  # a crashing operation is a failed one; go on with the rest
        crash = e
    elapsed = time.perf_counter() - t0
    if crash is not None:
        problems = [f"raised {crash!r}"]
    else:
        try:
            problems = op.problems(code, out.getvalue())
        except (KeyError, TypeError, ValueError, IndexError) as e:
            problems = [f"malformed output: {e!r}"]
    if problems and err.getvalue():
        problems.append(f"stderr: {err.getvalue().strip()[:200]}")
    return elapsed, [f"{op.name}: {p}" for p in problems]


def main() -> int:
    root, workload, seed, mode, seconds = (
        Path(sys.argv[1]), sys.argv[2], int(sys.argv[3]), sys.argv[4], float(sys.argv[5])
    )
    sys.path.insert(0, str(root / "src"))
    from starchip import cli

    cli.build_parser()
    print("ready", flush=True)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from reference import time_reference

    if mode == "setup":
        print(json.dumps({"ref_s": time_reference()}))
        return 0
    if Path(cli.__file__).resolve().parent != (root / "src" / "starchip").resolve():
        sys.stderr.write(f"imported starchip from {cli.__file__}, not from {root / 'src'}\n")
        return 2

    import workloads

    # A corrupted expectation must be reported as a failed operation.
    good, corrupted = workloads.self_check_ops()
    self_check_ok = not run_op(cli, good)[1] and bool(run_op(cli, corrupted)[1])

    ops = workloads.ops_for(workload, seed)
    tracer = None
    if mode == "spans":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    elif mode == "memory":
        import tracemalloc

        tracemalloc.start()

    times: dict[str, list[float]] = {op.name: [] for op in ops}
    refs = [time_reference()] if mode != "memory" else []
    last_ref = time.perf_counter()
    summaries: dict[str, dict] = {}
    problems: list[str] = []
    attempted = failed = 0
    traced_peak = 0
    start = time.perf_counter()
    for i in itertools.count():
        op = ops[i % len(ops)]
        if i >= len(ops) and (mode != "plain" or time.perf_counter() - start >= seconds):
            break
        lo = len(tracer) if tracer is not None else 0
        if mode == "memory":
            tracemalloc.reset_peak()
        elapsed, found = run_op(cli, op)
        if mode == "memory":
            traced_peak = max(traced_peak, tracemalloc.get_traced_memory()[1])
        elif time.perf_counter() - last_ref >= REF_EVERY_S:
            refs += [time_reference(), time_reference()]
            last_ref = time.perf_counter()
        if tracer is not None:
            summaries[op.name] = tracing.summarize(tracer, lo)
        times[op.name].append(elapsed)
        attempted += 1
        if found:
            failed += 1
            problems.extend(found)

    result = {
        "op_times": times,
        "ref_times": refs,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "self_check_ok": self_check_ok,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["summaries"] = summaries
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"{workload}.spans.tsv")
    if mode == "memory":
        result["traced_peak_mb"] = traced_peak / 2**20
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
