"""Each demo script runs to completion as a subprocess."""
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

# demos/05_random_play_frequencies.py is left out: it takes about 10 s.
DEMOS = [
    "01_single_game.py",
    "02_labeled_play_and_sorting.py",
    "03_sequence_census.py",
    "04_tableau_correspondence.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
