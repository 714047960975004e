"""Importing netepi, CLI included, loads no scipy module, and a metrics
report loads no numpy.ma.

scipy is a test-only dependency; its import cost, like numpy.ma's, would
be paid by every CLI process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import netepi


def _modules_after(code: str, prefix: str) -> list[str]:
    """Modules under `prefix` loaded once `code` has run in a fresh interpreter."""
    env = dict(os.environ)
    package_root = str(Path(netepi.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    code += (f"; import json, sys; print(json.dumps([m for m in sys.modules "
             f"if m == {prefix!r} or m.startswith({prefix + '.'!r})]))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_cli_import_loads_no_scipy():
    assert _modules_after("import netepi, netepi.cli", "scipy") == []


def test_metrics_report_loads_no_numpy_ma():
    code = ("from netepi.graphs import generate_ba, metrics_report; "
            "metrics_report(generate_ba(2000, 3, seed=1))")
    assert _modules_after(code, "numpy.ma") == []
