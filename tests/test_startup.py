"""Importing netepi, CLI included, loads no scipy module.

scipy is a test-only dependency; its import cost would be paid by every
CLI process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import netepi


def test_cli_import_loads_no_scipy():
    env = dict(os.environ)
    package_root = str(Path(netepi.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    code = ("import json, sys; import netepi, netepi.cli; "
            "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
