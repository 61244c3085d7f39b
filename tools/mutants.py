"""Run a seeded sample of mutants of the package against its tests.

A mutant changes one site inside one function or class of
``src/starchip``: it swaps ``<`` with ``<=``, ``>`` with ``>=`` or ``==``
with ``!=``; swaps ``+`` with ``-``, ``*`` with ``//``, ``&`` with ``|`` or
``>>`` with ``<<``; adds 1 to an int constant; or swaps ``and`` with ``or``.
Annotations, decorators and f-strings are left alone. The sites are found
with ``ast`` and each mutant is spliced into the source text, so the rest
of the file, comments included, stays as it is.

The checkout is copied to a temporary directory once, and each mutant is
written into the copy in turn and tested there with ``python -m pytest -x
-q``, in a process whose address space is capped at 2 GiB and whose run
time is capped at five times that of the unmutated copy. The checkout
itself is never edited. A mutant the tests pass survives; one that runs out
of time counts as killed.

``tools/equivalent_mutants.txt`` lists the mutants known to behave as the
original does, each with its reason. The run prints every mutant with its
fate and exits 1 if a survivor is not listed there, 2 if the unmutated copy
fails its tests.

Usage: python tools/mutants.py [--seed N] [--count N] [--function NAME]...

``--function`` keeps the sites inside the named function or class, named as
in its module (``_sweep``, ``GameCheck.fire``) or with the module
(``cli._verify_range``); it may be given more than once. ``--count`` draws
that many of the kept sites with ``--seed`` (default 0); by default every
kept site is run.
"""
from __future__ import annotations

import argparse
import ast
import copy
import os
import random
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src", "starchip")
EQUIVALENT = ROOT / "tools" / "equivalent_mutants.txt"
MEMORY = 2 << 30
"""The address-space cap of a test run, in bytes, so that a mutant that
loops while it allocates fails instead of filling the machine."""

_SWAP = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.RShift: ast.LShift, ast.LShift: ast.RShift,
    ast.And: ast.Or, ast.Or: ast.And,
}  # fmt: skip


class Mutant(NamedTuple):
    path: Path
    """The mutated file, relative to the checkout."""
    start: int
    end: int
    """The byte span of the source that ``text`` replaces."""
    text: bytes
    name: str
    """``module.scope: before -> after``, which the equivalent list quotes."""


def _flat(text: str) -> str:
    return " ".join(text.split())


def _variants(node: ast.AST) -> list[ast.AST]:
    """Each one-site change of ``node`` itself, as a changed copy."""
    out = []
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in _SWAP:
                new = copy.deepcopy(node)
                new.ops[i] = _SWAP[type(op)]()
                out.append(new)
    elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in _SWAP:
        new = copy.deepcopy(node)
        new.op = _SWAP[type(node.op)]()
        out.append(new)
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        out.append(ast.Constant(node.value + 1))
    return out


def _names_a_constant(node: ast.AST) -> bool:
    if isinstance(node, ast.stmt):
        return not hasattr(node, "body")
    return isinstance(node, ast.expr) and not isinstance(node, ast.Slice)


def sites(path: Path) -> list[tuple[list[str], Mutant]]:
    """Every mutant of the file ``path`` (relative to the checkout) inside
    a function or class, with the names of the scopes it lies in, outermost
    first, in source order."""
    source = (ROOT / path).read_text()
    data = source.encode()
    lines = [0]
    for line in data.splitlines(keepends=True):
        lines.append(lines[-1] + len(line))
    found: list[tuple[list[str], Mutant]] = []
    seen: dict[str, int] = {}

    def span(node: ast.AST) -> tuple[int, int]:
        return lines[node.lineno - 1] + node.col_offset, lines[node.end_lineno - 1] + node.end_col_offset

    def visit(node: ast.AST, parents: list[ast.AST], scopes: list[str]) -> None:
        if isinstance(node, ast.JoinedStr):
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scopes = scopes + [node.name]
        for field, value in ast.iter_fields(node):
            if field not in ("annotation", "returns", "decorator_list"):
                for child in value if isinstance(value, list) else [value]:
                    if isinstance(child, ast.AST):
                        visit(child, parents + [node], scopes)
        for new in _variants(node) if scopes else ():
            start, end = span(node)
            text = ast.unparse(new)
            spliced = text if isinstance(node, ast.stmt) else f"({text})"
            context = node
            if isinstance(node, ast.Constant):  # named by the expression or simple statement it is in
                context = next((a for a in reversed(parents) if _names_a_constant(a)), node)
            c_start, c_end = span(context)
            before = data[c_start:c_end].decode()
            after = (data[c_start:start] + text.encode() + data[end:c_end]).decode()
            name = f"{path.stem}.{'.'.join(scopes)}: {_flat(before)} -> {_flat(after)}"
            seen[name] = seen.get(name, 0) + 1
            if seen[name] > 1:
                name += f" [{seen[name]}]"
            found.append((scopes, Mutant(path, start, end, spliced.encode(), name)))

    visit(ast.parse(source), [], [])
    found.sort(key=lambda item: item[1].start)
    return found


def _in(scopes: list[str], module: str, wanted: set[str]) -> bool:
    names = {".".join(scopes[:i]) for i in range(1, len(scopes) + 1)}
    return bool(wanted & (names | {f"{module}.{name}" for name in names}))


def equivalents() -> dict[str, str]:
    """The listed equivalent mutants, each with its reason. An entry is a
    mutant's name on a line of its own and its reason on the indented lines
    under it; lines that start with ``#`` are comments."""
    listed: dict[str, str] = {}
    name = None
    for line in EQUIVALENT.read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        if line[0].isspace() and name is not None:
            listed[name] = _flat(f"{listed[name]} {line}")
        else:
            name = line.strip()
            listed[name] = ""
    return listed


def _limit() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def _exited(pid: int, timeout: float) -> bool:
    """Whether the child ``pid`` exits within ``timeout`` seconds; it is
    left unreaped, so its process group stays its own until it is."""
    deadline = time.monotonic() + timeout
    while os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None:
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


def run_tests(checkout: Path, timeout: float) -> str:
    """``passed``, ``failed`` or ``timeout``: the tests of ``checkout``.

    A run passes only when pytest exits 0 with its summary of passed tests
    as its last line, so a mutant that ends the test process at once, such
    as a forked child's ``os._exit(0)`` run by the parent, fails. Whatever
    the run started is killed once pytest exits."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    with tempfile.TemporaryFile() as out:
        tests = subprocess.Popen(
            argv, cwd=checkout, env=env, stdout=out, stderr=subprocess.STDOUT, preexec_fn=_limit,
            start_new_session=True,
        )  # fmt: skip
        try:
            exited = _exited(tests.pid, timeout)
        finally:
            os.killpg(tests.pid, signal.SIGKILL)  # pytest, unless it exited, and whatever it started
            status = tests.wait()
        out.seek(0)
        lines = out.read().decode(errors="replace").splitlines() or [""]
    if not exited:
        return "timeout"
    summary = re.fullmatch(r"\d+ passed(, \d+ \w+)* in \S+( \(\S+\))?", lines[-1])
    return "passed" if status == 0 and summary else "failed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run a seeded sample of mutants against the tests.")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=None, help="mutants to draw; all by default")
    parser.add_argument("--function", action="append", default=[], help="keep sites inside NAME only")
    args = parser.parse_args(argv)
    wanted = set(args.function)
    mutants = [
        mutant
        for path in sorted((ROOT / PACKAGE).glob("*.py"))
        for scopes, mutant in sites(path.relative_to(ROOT))
        if not wanted or _in(scopes, path.stem, wanted)
    ]
    if args.count is not None and args.count < len(mutants):
        mutants = random.Random(args.seed).sample(mutants, args.count)
        mutants.sort(key=lambda mutant: (mutant.path, mutant.start))
    listed = equivalents()
    if not mutants:
        sys.stderr.write("no mutation site matches\n")
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        checkout = Path(tmp, "checkout")
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out")
        shutil.copytree(ROOT, checkout, ignore=ignore)
        began = time.monotonic()
        if run_tests(checkout, float("inf")) != "passed":
            sys.stderr.write("the unmutated copy fails its tests\n")
            return 2
        timeout = 5 * (time.monotonic() - began)
        print(f"{len(mutants)} mutants; the unmutated tests took {timeout / 5:.1f} s", flush=True)
        fates: dict[str, int] = {}
        for mutant in mutants:
            target = checkout / mutant.path
            original = target.read_bytes()
            target.write_bytes(original[: mutant.start] + mutant.text + original[mutant.end :])
            try:
                result = run_tests(checkout, timeout)
            finally:
                target.write_bytes(original)
            fate = {"failed": "killed", "timeout": "timeout"}.get(result)
            fate = fate or ("equivalent" if mutant.name in listed else "SURVIVED")
            fates[fate] = fates.get(fate, 0) + 1
            print(f"{fate:10}  {mutant.name}", flush=True)
    if not wanted and args.count is None:  # every site ran, so every listed mutant should be among them
        for name in sorted(set(listed) - {mutant.name for mutant in mutants}):
            sys.stderr.write(f"listed as equivalent, but no such mutant: {name}\n")
    print(", ".join(f"{n} {fate}" for fate, n in sorted(fates.items())))
    return 1 if fates.get("SURVIVED") else 0


if __name__ == "__main__":
    sys.exit(main())
