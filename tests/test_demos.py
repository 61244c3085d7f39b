"""Each demo script runs to completion as a subprocess and prints what it
printed when its digest was pinned."""
import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

# sha256 of each demo's stdout. Tier-1 runs on Python 3.10 to 3.13 with
# a random PYTHONHASHSEED, so the bytes must depend on neither.
# demos/05_random_play_frequencies.py is left out: it takes about 10 s.
DEMOS = {
    "01_single_game.py": "0920b42279e6bc6dd82b682d91a348ce085e9732bd3322d9cf305d3294803ba9",
    "02_labeled_play_and_sorting.py": "0323df652b0886a7c847bff055ba9c64673b86016adad16e9e6f75f1a44e649f",
    "03_sequence_census.py": "6ba80408a8b731a6766a9b27e0c088e1044d9e511f794ea56e12765cbbf82cdc",
    "04_tableau_correspondence.py": "248ff098e3c14d241ade0e5e9c121e1379b772eee2fc39ebede8643a02ac3222",
}


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env, capture_output=True, timeout=120
    )
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == DEMOS[demo]
