"""Random-play frequency experiments and table/JSON emitters.

A report holds what was counted and nothing it could derive. A
:class:`FrequencyReport` holds the shape, the seed and each observed
outcome's hit count; its trial count, each outcome's standard-tableau and
totally-sorted flags and its two verdicts are computed from those when read.
An :class:`~starchip.enumeration.EnumerationResult` likewise holds only the
sequence count of each outcome, and its total is their sum.

Sequence counts and random-play frequencies measure different things: random
play does not pick stabilization sequences uniformly, so a popular outcome by
sequence count need not be the most frequent under random play. Reports keep
the two side by side where useful and annotate two facts about the sample:
whether the totally sorted outcome is its mode, and whether every
standard-tableau outcome out-frequents every non-standard one in it. Neither
holds for random play in general. ``starchip montecarlo --k 2 --m 5 --trials
20000 --seed 1`` ranks [1,2,4,5,6],[3,7,8,9,10] first with 2,341 hits and the
sorted outcome third with 1,415. On (3,3) the standard filling
[1,4,7],[2,5,8],[3,6,9] has exact probability 0.001771 under random play,
below the non-standard [1,4,5],[2,3,7],[6,8,9] at 0.001852.
"""
from __future__ import annotations

import errno
import os
import stat
from collections import Counter
from typing import NamedTuple

from .core import Outcome, StarParams, is_totally_sorted, outcome_to_text
from .engine import fork_trials, random_games
from .enumeration import EnumerationResult
from .tableaux import from_outcome


class FrequencyReport(NamedTuple):
    """Outcome tallies over independent seeded random-play stabilizations."""

    params: StarParams
    seed: int
    per_outcome: dict[Outcome, int]
    """Hit count of each observed outcome, in no specified order."""

    @property
    def trials(self) -> int:
        return sum(self.per_outcome.values())

    def sorted_items(self) -> list[tuple[Outcome, int]]:
        """Most frequent first; ties broken lexicographically."""
        return sorted(self.per_outcome.items(), key=lambda kv: (-kv[1], kv[0]))

    def mode_outcomes(self) -> list[Outcome]:
        top = max(self.per_outcome.values())
        return sorted(o for o, hits in self.per_outcome.items() if hits == top)

    @property
    def totally_sorted_is_mode(self) -> bool:
        return any(is_totally_sorted(o) for o in self.mode_outcomes())

    @property
    def syt_outcomes_dominate(self) -> bool:
        """True iff every observed standard-tableau outcome out-frequents every
        observed non-standard outcome (vacuously true if either side is empty)."""
        syt_hits, other_hits = [], []
        for o, hits in self.per_outcome.items():
            (syt_hits if from_outcome(o).is_standard else other_hits).append(hits)
        if not syt_hits or not other_hits:
            return True
        return min(syt_hits) > max(other_hits)

    def to_json(self) -> str:
        import json

        doc = {
            "k": self.params.k,
            "m": self.params.m,
            "trials": self.trials,
            "seed": self.seed,
            "outcomes": [
                {
                    "branches": [list(row) for row in outcome],
                    "hits": hits,
                    "is_syt": from_outcome(outcome).is_standard,
                    "is_totally_sorted": is_totally_sorted(outcome),
                }
                for outcome, hits in self.sorted_items()
            ],
            "totally_sorted_is_mode": self.totally_sorted_is_mode,
            "syt_outcomes_dominate": self.syt_outcomes_dominate,
        }
        return json.dumps(doc, indent=2)


def run_montecarlo(params: StarParams, trials: int, seed: int) -> FrequencyReport:
    """Tally outcomes of ``trials`` independent random-play stabilizations,
    played without move logs or per-fire checks by
    :func:`starchip.engine.random_games` in
    consecutive ranges of trials on every usable CPU
    (:func:`starchip.engine.fork_trials`), so the report depends only on
    (params, trials, seed)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")

    def tally_range(part: range) -> dict[Outcome, int]:
        return dict(Counter(outcome for _, outcome, _ in random_games(params, part, seed)))

    tally: Counter[Outcome] = Counter()
    for part in fork_trials(params, trials, tally_range):
        tally.update(part)
    return FrequencyReport(params, seed, dict(tally))


def _enumeration_table(result: EnumerationResult) -> str:
    params = result.params
    lines = [f"stabilization sequence counts for k={params.k}, m={params.m}"]
    for outcome, count in result.sorted_items():
        flag = " | totally-sorted" if is_totally_sorted(outcome) else ""
        lines.append(f"{outcome_to_text(outcome)} | {count}{flag}")
    lines.append(f"total | {result.total_sequences}")
    return "\n".join(lines) + "\n"


def _frequency_table(report: FrequencyReport) -> str:
    params = report.params
    lines = [
        f"random-play outcome frequencies for k={params.k}, m={params.m} "
        f"(trials={report.trials}, seed={report.seed})"
    ]
    for outcome, hits in report.sorted_items():
        tags = ["syt" if from_outcome(outcome).is_standard else "non-syt"]
        if is_totally_sorted(outcome):
            tags.append("totally-sorted")
        lines.append(f"{outcome_to_text(outcome)} | {hits} | {' | '.join(tags)}")
    lines.append(f"totally sorted outcome is the mode: {'yes' if report.totally_sorted_is_mode else 'no'}")
    lines.append(
        "syt outcomes out-frequent non-syt outcomes: "
        f"{'yes' if report.syt_outcomes_dominate else 'no'}"
    )
    return "\n".join(lines) + "\n"


def emit_table(result: EnumerationResult | FrequencyReport, format: str = "text") -> str:
    """Render a result as a text table or as its JSON document."""
    if format == "json":
        return result.to_json() + "\n"
    if format != "text":
        raise ValueError(f"unknown format {format!r}; expected 'text' or 'json'")
    if isinstance(result, EnumerationResult):
        return _enumeration_table(result)
    return _frequency_table(result)


def write_atomic(path: str, text: str) -> None:
    """Write UTF-8 text via a temp file and rename, so readers never see a
    partially written file. As with ``open(path, "w")``, a symlink at
    ``path`` is written through, the file keeps or gets the mode that call
    would give it, and an OSError names ``path``, not the temp file."""
    import tempfile

    target = os.path.realpath(path)
    umask = os.umask(0)
    os.umask(umask)
    try:
        mode = stat.S_IMODE(os.stat(target).st_mode)
    except OSError:
        mode = 0o666 & ~umask
    tmp = None
    try:
        if os.path.islink(target):  # realpath stops at a symlink loop, where open() fails
            raise OSError(errno.ELOOP, os.strerror(errno.ELOOP))
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".tmp-", suffix=os.path.basename(target))
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.chmod(tmp, mode)
        os.replace(tmp, target)
    except BaseException as e:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(e, OSError):
            raise OSError(e.errno, e.strerror, path) from None
        raise
