"""Every demo runs end to end through the public API.

Each runs as its own process in an empty directory, with the package that
the tests import put first on PYTHONPATH.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import netepi

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", [path.name for path in sorted(DEMOS.glob("*.py"))])
def test_demo_runs(tmp_path, name):
    env = dict(os.environ)
    package_root = str(Path(netepi.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
