"""starchip benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Usage (from the repository root):

    python3 bench/run.py --workload census --seed 0 --seconds 30 --trace 0

Each workload runs in fresh single-threaded worker processes, one at a time.
Every operation is one in-process ``starchip.cli.main(argv)`` call whose
stdout is checked exactly (see ``workloads.py``). The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0  end-to-end metrics, times in nominal seconds (see NOMINAL_REF_S):
           ``setup_s`` (median of several spawns, from spawn until
           ``starchip.cli`` is imported and ``build_parser()`` has
           returned), ``wall_s`` (the sum over operations of each one's mean
           wall time across ``--seconds`` of repeats) and ``peak_rss_mb``
           (the worker's ``ru_maxrss``). Measured seconds go to stderr.
--trace 1  per-layer metrics: an untraced run as above, one pass with every
           layer wrapped by ``tracer.py`` (spans are written to
           ``.bench_out/<workload>.spans.tsv``), and one pass under
           tracemalloc, each in its own process.

The exit code is 1 when an operation fails its check, and 2 when the
package is missing or a worker dies; in that last case no result is printed.
"""
from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

SETUP_SPAWNS = 7
"""Worker processes spawned only to time set-up; the measuring worker adds one more sample."""

NOMINAL_REF_S = 0.060
"""Time metrics are in nominal seconds: measured seconds times NOMINAL_REF_S
over the reference loop's time measured alongside them (``reference.py``).
The shared host's speed swings by up to 1.5x within minutes; the scaled
figures do not."""

DEADLINE_S = 170.0
"""Every worker must have ended this long after the benchmark started."""

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, ops_for  # noqa: E402

ALL_OPS = [op.name for workload in WORKLOADS for op in ops_for(workload, 0)]

PER_LAYER_UNITS = {
    "core.apply_move.calls": "count",
    "core.apply_move.self_us": "us",
    "core.legal_moves.calls": "count",
    "core.legal_moves.self_us": "us",
    "core.canonical_outcome.calls": "count",
    "core.self_s": "s",
    "enumeration.states": "count",
    "enumeration.edges": "count",
    "enumeration.new_state_ratio": "ratio",
    "enumeration.states_per_s": "1/s",
    "enumeration.self_s": "s",
    "engine.fires": "count",
    "engine.us_per_fire.random": "us",
    "engine.us_per_fire.det": "us",
    "engine.us_per_fire.volmin": "us",
    "engine.pick.self_us.random": "us",
    "engine.pick.self_us.volmin": "us",
    "engine.volmin.moves_built": "count",
    "engine.volmin.pick_yield": "ratio",
    "verify.poset.calls": "count",
    "verify.poset.us_per_fire": "us",
    "verify.mixing.us_per_log": "us",
    "verify.self_s": "s",
    "rng.draws": "count",
    "rng.self_s": "s",
    "tableaux.generate_syts.s": "s",
    "tableaux.from_outcome.calls": "count",
    "tableaux.self_s": "s",
    "reports.run_montecarlo.games_per_s": "1/s",
    "reports.emit_table.s": "s",
    "reports.self_s": "s",
    **{f"cli.op.{name}.s": "s" for name in ALL_OPS},
    "cli.self_s": "s",
    "memory.traced_peak_mb": "MB",
    "trace_overhead_ratio": "ratio",
}


class WorkerError(Exception):
    pass


class Runner:
    """Spawns workers one at a time, all bounded by one deadline."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONHASHSEED="0")

    def remaining(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def spawn(self, mode: str, seconds: float = 0.0) -> tuple[float, dict]:
        """Run one worker; return its set-up time and its result."""
        argv = [sys.executable, str(WORKER), str(ROOT), self.workload, str(self.seed), mode, str(seconds)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=self.env, cwd=ROOT)
        try:
            if not select.select([proc.stdout], [], [], self.remaining())[0]:
                raise subprocess.TimeoutExpired(argv, self.remaining())
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            out, _ = proc.communicate(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            raise WorkerError(f"{mode} worker for {self.workload} ran past the deadline") from None
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if ready.strip() != "ready" or proc.returncode != 0:
            raise WorkerError(f"{mode} worker for {self.workload} exited with code {proc.returncode}")
        return setup_s, json.loads(out.splitlines()[-1])


def pass_and_ref_s(result: dict) -> tuple[float, float]:
    """Mean time of one pass through the workload, and mean reference-loop time.

    Means, not medians: both then average the host's speed over the same
    stretch of time, which is what makes their ratio steady.
    """
    return (sum(statistics.fmean(ts) for ts in result["op_times"].values()),
            statistics.fmean(result["ref_times"]))


def end_to_end(runner: Runner, seconds: float) -> tuple[list[dict], dict]:
    # (set-up seconds, reference loop seconds measured in the same process)
    setups = []
    for _ in range(SETUP_SPAWNS):
        setup_s, probe = runner.spawn("setup")
        setups.append((setup_s, probe["ref_s"]))
    setup_s, plain = runner.spawn("plain", seconds)
    setups.append((setup_s, plain["ref_times"][0]))
    wall_s, ref_s = pass_and_ref_s(plain)
    sys.stderr.write(
        f"measured: wall {wall_s:.4f} s, set-up {statistics.median(s for s, _ in setups):.4f} s, "
        f"reference loop {1e3 * ref_s:.3f} ms\n"
    )
    metrics = {
        "setup_s": (statistics.median(s * NOMINAL_REF_S / r for s, r in setups), "s"),
        "wall_s": (wall_s * NOMINAL_REF_S / ref_s, "s"),
        "peak_rss_mb": (plain["maxrss_mb"], "MB"),
    }
    return [plain], metrics


def per_layer(runner: Runner, seconds: float) -> tuple[list[dict], dict]:
    plain = runner.spawn("plain", seconds)[1]
    traced = runner.spawn("spans")[1]
    memory = runner.spawn("memory")[1]
    op_s = {op: statistics.median(ts) for op, ts in plain["op_times"].items()}
    summaries = traced["summaries"]

    by_name: dict[str, dict] = {}
    for summary in summaries.values():
        for name, stats in summary["by_name"].items():
            acc = by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "size": 0})
            for key in acc:
                acc[key] += stats[key]

    def stat(name: str, key: str):
        return by_name.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def self_us(name: str) -> float:
        return 1e6 * ratio(stat(name, "self_s"), stat(name, "calls"))

    def layer_self(layer: str) -> float:
        return sum(s["layer_self_s"][layer] for s in summaries.values())

    def us_per_fire(strategy: str, pick: str) -> float:
        game_s = sum(s["stabilize_s"].get(strategy, 0.0) for s in summaries.values())
        return 1e6 * ratio(game_s, stat(pick, "calls"))

    states = sum(s["states"] for s in summaries.values())
    edges = sum(s["edges"] for s in summaries.values())
    search_s = sum(op_s[op] for op, s in summaries.items() if s["states"])
    mc_ops = [op for op, s in summaries.items() if "reports.run_montecarlo" in s["by_name"]]
    games = sum(summaries[op]["by_name"]["engine.stabilize_labeled"]["calls"] for op in mc_ops)
    moves_built = sum(s["volmin_moves_built"] for s in summaries.values())
    picks = ("engine.RandomUniform.pick", "engine.Deterministic.pick", "engine.VolatilityMinimizing.pick")

    values = {
        "core.apply_move.calls": stat("core.apply_move", "calls"),
        "core.apply_move.self_us": self_us("core.apply_move"),
        "core.legal_moves.calls": stat("core.legal_moves", "calls"),
        "core.legal_moves.self_us": self_us("core.legal_moves"),
        "core.canonical_outcome.calls": stat("core.canonical_outcome", "calls"),
        "core.self_s": layer_self("core"),
        "enumeration.states": states,
        "enumeration.edges": edges,
        "enumeration.new_state_ratio": ratio(states, edges),
        "enumeration.states_per_s": ratio(states, search_s),
        "enumeration.self_s": layer_self("enumeration"),
        "engine.fires": sum(stat(p, "calls") for p in picks),
        "engine.us_per_fire.random": us_per_fire("random", picks[0]),
        "engine.us_per_fire.det": us_per_fire("det", picks[1]),
        "engine.us_per_fire.volmin": us_per_fire("volmin", picks[2]),
        "engine.pick.self_us.random": self_us(picks[0]),
        "engine.pick.self_us.volmin": self_us(picks[2]),
        "engine.volmin.moves_built": moves_built,
        "engine.volmin.pick_yield": ratio(stat(picks[2], "calls"), moves_built),
        "verify.poset.calls": stat("verify.verify_poset", "calls"),
        "verify.poset.us_per_fire": 1e6 * ratio(stat("verify.verify_poset", "total_s"),
                                                stat("verify.verify_poset", "size")),
        "verify.mixing.us_per_log": 1e6 * ratio(stat("verify.verify_mixing", "total_s"),
                                                stat("verify.verify_mixing", "calls")),
        "verify.self_s": layer_self("verify"),
        "rng.draws": stat("rng.SplitMix64.randrange", "calls"),
        "rng.self_s": layer_self("rng"),
        "tableaux.generate_syts.s": stat("tableaux.generate_syts", "total_s"),
        "tableaux.from_outcome.calls": stat("tableaux.from_outcome", "calls"),
        "tableaux.self_s": layer_self("tableaux"),
        "reports.run_montecarlo.games_per_s": ratio(games, sum(op_s[op] for op in mc_ops)),
        "reports.emit_table.s": stat("reports.emit_table", "total_s"),
        "reports.self_s": layer_self("reports"),
        **{f"cli.op.{name}.s": op_s.get(name, 0.0) for name in ALL_OPS},
        "cli.self_s": layer_self("cli"),
        "memory.traced_peak_mb": memory["traced_peak_mb"],
        "trace_overhead_ratio": ratio(*pass_and_ref_s(traced)) / ratio(*pass_and_ref_s(plain)),
    }
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    return [plain, traced, memory], metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the untraced run repeats the workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "starchip" / "cli.py").is_file():
        sys.stderr.write(f"error: no starchip package under {ROOT / 'src'}\n")
        return 2
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            results, metrics = per_layer(runner, args.seconds)
        else:
            results, metrics = end_to_end(runner, args.seconds)
    except (WorkerError, ValueError, KeyError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2

    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and all(r["self_check_ok"] for r in results)
    for r in results:
        for problem in r["problems"]:
            sys.stderr.write(f"check failed: {problem}\n")
        if not r["self_check_ok"]:
            sys.stderr.write("check failed: a corrupted expected value was not detected\n")
    doc = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(doc))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
