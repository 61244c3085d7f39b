"""What a command loads: building the parser loads ``core``, ``engine`` and
``rng`` and nothing a command may not need, each command loads the rest of
what it runs when it runs, and nothing ever loads ``dataclasses``.

Each check runs in a fresh interpreter started with ``-S``, so the modules
it sees are the package's doing, not a site hook's."""
import os
import subprocess
import sys

import pytest

import starchip

PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(starchip.__file__)))

DEFERRED = ("starchip.enumeration", "starchip.reports", "starchip.tableaux", "starchip.verify")
"""The package modules no command needs before it runs."""


def loaded_after(script: str) -> set[str]:
    """The names in ``sys.modules`` after ``script`` runs in a fresh
    interpreter that finds this package first; the script's own stdout is
    discarded. The harness itself loads nothing but ``io`` and ``sys``,
    which every interpreter loads as it starts."""
    code = (
        f"import io, sys\nsys.path.insert(0, {PACKAGE_ROOT!r})\n"
        "out, sys.stdout = sys.stdout, io.StringIO()\n"
        f"{script}\n"
        "print(*sorted(sys.modules), sep='\\n', file=out)\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_building_the_parser_loads_no_command_module():
    loaded = loaded_after("from starchip import cli\ncli.build_parser()")
    assert {"starchip.cli", "starchip.core", "starchip.engine", "starchip.rng"} <= loaded
    assert not loaded & {"dataclasses", "inspect", "json", *DEFERRED}


def test_an_unverified_game_loads_no_deferred_module():
    loaded = loaded_after('from starchip import cli\ncli.main(["stabilize", "--k", "2", "--m", "2"])')
    assert "starchip.engine" in loaded
    assert not loaded & set(DEFERRED)


def test_no_command_loads_dataclasses(tmp_path):
    out = str(tmp_path / "table.txt")
    commands = [
        ["stabilize", "--k", "3", "--m", "2", "--strategy", "volmin", "--json", "--verify"],
        ["enumerate", "--k", "2", "--m", "2", "--json", "--out", out],
        ["volmin", "--k", "2", "--m", "2", "--json"],
        ["syt", "--k", "2", "--m", "2", "--list", "--witness"],
        ["montecarlo", "--k", "2", "--m", "2", "--trials", "5", "--seed", "0", "--with-enumeration"],
        ["verify", "--k", "2", "--m", "2", "--samples", "3", "--seed", "0"],
    ]
    script = "from starchip import cli\n" + "".join(f"assert cli.main({argv!r}) == 0\n" for argv in commands)
    loaded = loaded_after(script)
    assert set(DEFERRED) <= loaded  # every command ran
    assert "dataclasses" not in loaded


def test_a_bare_import_loads_no_submodule():
    loaded = loaded_after("import starchip")
    assert "starchip" in loaded
    assert not {name for name in loaded if name.startswith("starchip.")}


def test_star_import_binds_each_name_to_its_module_object():
    namespace: dict = {}
    exec("from starchip import *", namespace)
    for name in starchip.__all__:
        module = sys.modules[f"starchip.{starchip._MODULE_OF[name]}"]
        assert namespace[name] is getattr(module, name) is getattr(starchip, name)


def test_dir_covers_all_and_an_unknown_name_raises():
    assert set(starchip.__all__) <= set(dir(starchip))
    with pytest.raises(AttributeError, match="^module 'starchip' has no attribute 'no_such_name'$"):
        starchip.no_such_name


def test_each_submodule_is_an_attribute_of_the_package():
    for module in starchip._EXPORTS:
        assert getattr(starchip, module) is sys.modules[f"starchip.{module}"]


def test_the_benchmark_self_check_loads_every_traced_layer():
    """The benchmark's worker runs its self-check operation before it wraps
    the functions of every layer in ``bench/tracer.py``'s ``LAYERS``, which
    it looks up in ``sys.modules``. Since ``cli`` loads four of those
    layers only in the commands that run them, that operation must be one
    that loads every layer, or ``--trace 1`` fails."""
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
    script = (
        f"import sys\nsys.path[:0] = [{PACKAGE_ROOT!r}, {bench!r}]\n"
        "from starchip import cli\ncli.build_parser()\n"
        "import tracer, worker, workloads\n"
        "good, _ = workloads.self_check_ops()\n"
        "assert worker.run_op(cli, good)[1] == []\n"
        "missing = [layer for layer in tracer.LAYERS if f'starchip.{layer}' not in sys.modules]\n"
        "assert not missing, missing\n"
        "tracer.install(tracer.Tracer())\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
