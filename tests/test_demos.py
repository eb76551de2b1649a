"""The demos run end to end: each script in ``demos/``, in order, exits 0
from a copy of that directory."""

import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).parents[1]
SCRIPTS = ("01_certify.py", "02_solve.py", "03_verify.py",
           "04_growth_and_uniqueness.py")


def test_scripts_are_the_demos():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == list(
        SCRIPTS)


def test_demos_exit_0(tmp_path):
    demos = tmp_path / "demos"
    shutil.copytree(ROOT / "demos", demos,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for name in SCRIPTS:
        run = subprocess.run([sys.executable, name], cwd=demos, env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, (name, run.stderr)
