"""The benchmark's workloads: which CLI operations each one runs, and the
exact check applied to each operation's exit code and stdout.

Every operation is one ``starchip.cli.main(argv)`` call. Its inputs are made
from the workload seed alone. Operations whose output does not depend on the
seed are pinned by the sha256 of their stdout at every seed; seeded
operations are pinned at ``DEFAULT_SEED`` and checked structurally (sums,
sortedness, verifier verdicts, closed-form fire counts) at every seed.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Callable

DEFAULT_SEED = 0
"""Seed whose stdout digests are pinned in ``PINNED_SHA256``."""

HELD_OUT_SEED = 104729
"""Seed kept out of tuning; only the structural checks apply to it."""

Check = Callable[[int, str], list[str]]
"""(exit code, stdout) -> list of problems; empty means the output is correct."""


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    check: Check
    sha256: str | None = None

    def problems(self, code: int, stdout: str) -> list[str]:
        found = self.check(code, stdout)
        if self.sha256 is not None:
            digest = hashlib.sha256(stdout.encode()).hexdigest()
            if digest != self.sha256:
                found.append(f"stdout sha256 {digest} != pinned {self.sha256}")
        return found


def total_fires(k: int, m: int) -> int:
    """Closed-form length of every stabilization from k*m center chips."""
    return m * (m + 1) // 2 + k * ((m - 1) * m * (m + 1) // 6)


def _outcome_problems(k: int, m: int, rows: list[list[int]]) -> list[str]:
    """A stable outcome is a k x m filling with 1..k*m, every branch
    increasing outward, and the innermost and outermost chips increasing
    across branches."""
    if len(rows) != k or any(len(row) != m for row in rows):
        return [f"outcome {rows} is not {k} x {m}"]
    if sorted(x for row in rows for x in row) != list(range(1, k * m + 1)):
        return [f"outcome {rows} does not hold 1..{k * m}"]
    if any(row[j] >= row[j + 1] for row in rows for j in range(m - 1)):
        return [f"outcome {rows} has an unsorted branch"]
    for ring in ([row[0] for row in rows], [row[-1] for row in rows]):
        if any(a >= b for a, b in zip(ring, ring[1:])):
            return [f"outcome {rows} has an unsorted rim"]
    return []


def _exit(code: int, want: int = 0) -> list[str]:
    return [] if code == want else [f"exit code {code}, expected {want}"]


def _json(stdout: str) -> dict | None:
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def enumerate_check(k: int, m: int, outcomes: int, sequences: int) -> Check:
    def check(code: int, stdout: str) -> list[str]:
        doc = _json(stdout)
        if doc is None:
            return _exit(code) + ["stdout is not JSON"]
        found = _exit(code)
        if (doc["k"], doc["m"]) != (k, m):
            found.append(f"shape {(doc['k'], doc['m'])}, expected {(k, m)}")
        if len(doc["outcomes"]) != outcomes:
            found.append(f"{len(doc['outcomes'])} outcomes, expected {outcomes}")
        if int(doc["total_sequences"]) != sequences:
            found.append(f"{doc['total_sequences']} sequences, expected {sequences}")
        if sum(int(o["sequence_count"]) for o in doc["outcomes"]) != sequences:
            found.append("per-outcome counts do not sum to the total")
        return found

    return check


def volmin_check(k: int, m: int, count: int) -> Check:
    def check(code: int, stdout: str) -> list[str]:
        doc = _json(stdout)
        if doc is None:
            return _exit(code) + ["stdout is not JSON"]
        found = _exit(code)
        if doc["count"] != count or len(doc["outcomes"]) != count:
            found.append(f"{doc['count']} volmin outcomes, expected {count}")
        if doc["matches_syt_image"] is not True:
            found.append("volmin outcomes do not match the standard-tableau image")
        return found

    return check


def verify_check(k: int, m: int, samples: int) -> Check:
    head = f"verified {samples} random stabilizations of k={k}, m={m} "

    def check(code: int, stdout: str) -> list[str]:
        lines = stdout.splitlines()
        found = _exit(code)
        if not lines or not lines[0].startswith(head):
            found.append(f"first line is not {head!r}")
        if not lines or lines[-1] != "verification: PASS":
            found.append("verify did not report PASS")
        return found

    return check


def montecarlo_check(k: int, m: int, trials: int) -> Check:
    def check(code: int, stdout: str) -> list[str]:
        doc = _json(stdout)
        if doc is None:
            return _exit(code) + ["stdout is not JSON"]
        found = _exit(code)
        hits = sum(o["hits"] for o in doc["outcomes"])
        if hits != trials or doc["trials"] != trials:
            found.append(f"hits sum to {hits}, expected {trials}")
        for o in doc["outcomes"]:
            found += _outcome_problems(k, m, o["branches"])
        return found

    return check


def stabilize_json_check(k: int, m: int, verified: bool) -> Check:
    def check(code: int, stdout: str) -> list[str]:
        doc = _json(stdout)
        if doc is None:
            return _exit(code) + ["stdout is not JSON"]
        found = _exit(code) + _outcome_problems(k, m, doc["outcome"])
        if doc["fires"] != total_fires(k, m) or len(doc["moves"]) != doc["fires"]:
            found.append(f"{doc['fires']} fires, expected {total_fires(k, m)}")
        if verified and not all(doc["verification"].values()):
            found.append(f"verification failed: {doc['verification']}")
        return found

    return check


def stabilize_text_check(k: int, m: int) -> Check:
    """Text output of ``stabilize --verify``: outcome, fire count, and five
    verification fields that must all pass."""

    def check(code: int, stdout: str) -> list[str]:
        lines = stdout.splitlines()
        if len(lines) != 3:
            return _exit(code) + [f"expected 3 lines, got {len(lines)}"]
        found = _exit(code)
        rows = [[int(x) for x in row.split(",")] for row in lines[0][len("outcome: ["):-1].split("],[")]
        found += _outcome_problems(k, m, rows)
        if lines[1] != f"fires: {total_fires(k, m)}":
            found.append(f"{lines[1]!r}, expected {total_fires(k, m)} fires")
        fields = lines[2].removeprefix("verification: ").split()
        if len(fields) != 5 or not all(f.endswith("=pass") for f in fields):
            found.append(f"verification fields not all passing: {lines[2]!r}")
        return found

    return check


# sha256 of each operation's stdout at DEFAULT_SEED, taken at the seed commit.
PINNED_SHA256 = {
    "enumerate_2x4": "d09c5f3e7eff2a1154caec5b948c38ee5c2916baab444893ce8aaa822d36e640",
    "enumerate_3x3": "c56316675786d8372f4832850730bc5c8e4fd2f44c2088845a3ff99377e467d6",
    "enumerate_6x2": "4b0f8140d3549d1e38a32469e1b24dd9be910d44904876e985d2c354ae7e1335",
    "volmin_3x3": "8b5e5abce96150f31a425bc9f656ceefcfa85bcd0f5d38cef946e83264469359",
    "verify_2x4": "57a16762264ede98d60fae05d079dc6501a2e7d640f8b5984cc2920282c81ff0",
    "montecarlo_3x3": "fe8ee62a6292fa3d4b613bb67277706d58809a9d6060293b8dee133e5fb9e9cd",
    "verify_3x3": "8103e2ca28d96448e13c8c33fa32f124d3d7f878bf530fd419a8216ffb999465",
    "c11_stabilize_random_2x3": "284d0dc39566d12bfa8ab24c4331e05faa22fba55cbc49c726c6cdc85a79d1db",
    "c11_stabilize_volmin_3x3": "150304a057c770fe62abeb95d541d4168df38e06fd36dd5f714d6b73f2fb32e0",
    "c11_enumerate_2x3": "43c1dd8f5f687438ff7e3ab6dc4c86d97e115732d8f5f80095a954ac3f0d12fd",
    "c11_volmin_3x2": "c004b391c4aef4a09458e224b63f6220073e19b0a61222fa4017c0a430cc7977",
    "c11_montecarlo_2x2": "74dcc3c98fa882a258f237d9c651d8f85d8ec618f5e280edc8b0ae1ccd3729ff",
    "stabilize_random_10x10_a": "6d15bb0c50129fedac65a6b9560dafc6c8bbf6a5963652c65673164a6141ae2e",
    "stabilize_random_10x10_b": "c031de99741a5d1cb676f46bf000bd949b1bdab73b472e20451772f42c8ae0a9",
    "stabilize_random_10x10_c": "ff2bc793080879687836ec694218503ca0a23a1ac67a8d10e06bee152b758a09",
    "stabilize_det_10x10": "5dd360635bf9d632f87289b277d460135d16b4dab3a3e8e4755f59e024211c5c",
    "stabilize_volmin_6x5": "5959b732b8edee08a844a948f53a290e7bafe1b4194bc14228fd1201d8185b01",
}

def _km(k: int, m: int) -> tuple[str, ...]:
    return ("--k", str(k), "--m", str(m))


def census(seed: int) -> list[Op]:
    return [
        Op("enumerate_2x4", ("enumerate", *_km(2, 4), "--json", "--max-states", "100000"),
           enumerate_check(2, 4, 16, 2_091_615_643_434_240)),
        Op("enumerate_3x3", ("enumerate", *_km(3, 3), "--json", "--max-states", "100000"),
           enumerate_check(3, 3, 47, 3_690_489_600)),
        Op("enumerate_6x2", ("enumerate", *_km(6, 2), "--json", "--max-states", "100000"),
           enumerate_check(6, 2, 132, 665_280)),
        Op("volmin_3x3", ("volmin", *_km(3, 3), "--json"), volmin_check(3, 3, 42)),
        # The only CLI path to reachable_set.
        Op("verify_2x4", ("verify", *_km(2, 4), "--samples", "20", "--seed", str(seed)),
           verify_check(2, 4, 20)),
    ]


def sample(seed: int) -> list[Op]:
    return [
        Op("montecarlo_3x3", ("montecarlo", *_km(3, 3), "--trials", "2000", "--seed", str(seed), "--json"),
           montecarlo_check(3, 3, 2000)),
        Op("verify_3x3", ("verify", *_km(3, 3), "--samples", "500", "--seed", str(seed)),
           verify_check(3, 3, 500)),
        # The five commands of acceptance criterion 11; at DEFAULT_SEED they
        # use that criterion's own seeds (42, 5, 17).
        Op("c11_stabilize_random_2x3",
           ("stabilize", *_km(2, 3), "--strategy", "random", "--seed", str(seed + 42), "--json", "--verify"),
           stabilize_json_check(2, 3, verified=True)),
        Op("c11_stabilize_volmin_3x3",
           ("stabilize", *_km(3, 3), "--strategy", "volmin", "--seed", str(seed + 5), "--json"),
           stabilize_json_check(3, 3, verified=False)),
        Op("c11_enumerate_2x3", ("enumerate", *_km(2, 3), "--json"), enumerate_check(2, 3, 5, 181_440)),
        Op("c11_volmin_3x2", ("volmin", *_km(3, 2), "--json"), volmin_check(3, 2, 5)),
        Op("c11_montecarlo_2x2", ("montecarlo", *_km(2, 2), "--trials", "250", "--seed", str(seed + 17), "--json"),
           montecarlo_check(2, 2, 250)),
    ]


def long_games(seed: int) -> list[Op]:
    random_games = [
        Op(f"stabilize_random_10x10_{tag}",
           ("stabilize", *_km(10, 10), "--strategy", "random", "--seed", str(seed + i), "--verify"),
           stabilize_text_check(10, 10))
        for i, tag in enumerate("abc")
    ]
    return random_games + [
        Op("stabilize_det_10x10", ("stabilize", *_km(10, 10), "--strategy", "det", "--verify"),
           stabilize_text_check(10, 10)),
        # The first center fire materialises all C(30, 6) = 593,775 moves.
        # How many more it builds depends on the path, and its time varies
        # by a third between seeds, so its seed is fixed.
        Op("stabilize_volmin_6x5", ("stabilize", *_km(6, 5), "--strategy", "volmin", "--seed", "0", "--verify"),
           stabilize_text_check(6, 5)),
    ]


WORKLOADS = {"census": census, "sample": sample, "long_games": long_games}


def ops_for(workload: str, seed: int) -> list[Op]:
    """The workload's operations at ``seed``; an operation whose argv is the
    same as at DEFAULT_SEED is held to its pinned stdout digest."""
    pinned = {op.name: op.argv for op in WORKLOADS[workload](DEFAULT_SEED)}
    return [
        replace(op, sha256=PINNED_SHA256[op.name]) if op.argv == pinned[op.name] else op
        for op in WORKLOADS[workload](seed)
    ]


def self_check_ops() -> tuple[Op, Op]:
    """A cheap operation with its true expected values, and the same one with
    a corrupted expected value; the second must be counted as failed."""
    argv = ("enumerate", *_km(2, 2), "--json")
    return (Op("self_check", argv, enumerate_check(2, 2, 2, 12)),
            Op("self_check_corrupted", argv, enumerate_check(2, 2, 2, 13)))
