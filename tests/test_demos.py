"""The demo scripts run as written and regenerate their CSVs byte for byte."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def test_demos_run_and_reproduce_their_csvs(tmp_path):
    # each demo writes under the output/ next to itself, so copies run in
    # tmp_path leave the committed demos/output/ untouched
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    scripts = sorted(DEMOS.glob("0*.py"))
    assert len(scripts) == 4
    for script in scripts:
        shutil.copy(script, tmp_path)
        done = subprocess.run(
            [sys.executable, str(tmp_path / script.name)],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, (script.name, done.stderr)
    pinned = sorted(p.name for p in (DEMOS / "output").glob("*.csv"))
    assert len(pinned) == 4
    assert sorted(p.name for p in (tmp_path / "output").glob("*.csv")) == pinned
    for name in pinned:
        written = (tmp_path / "output" / name).read_bytes()
        assert written == (DEMOS / "output" / name).read_bytes(), name
