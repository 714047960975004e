"""One workload run in a fresh process; started by run.py.

    python3 benchmark/child.py --workload NAME --seed N --trace 0|1 \
        --workdir DIR --result FILE

Imports netepi from the checkout's `src/`, generates the workload's inputs,
runs it once and checks its outputs. Writes one JSON result holding the
CLOCK_MONOTONIC stamps at which the workload was ready and done, the
event count, the operations attempted and failed, the SHA-256 of each
output file and, when traced, the spans and the per-layer figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _sha256(path: Path) -> str | None:
    if not path.is_file():
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import netepi
    import netepi.cli  # loads every layer, scipy.signal included, before timing
    import numpy
    import scipy

    if src.resolve() not in Path(netepi.__file__).resolve().parents:
        print(f"netepi imported from {netepi.__file__}, not from {src}", file=sys.stderr)
        return 2

    import tracer
    from audit import TrajectoryAudit
    from workloads import WORKLOADS, Ops

    tr = tracer.Tracer() if args.trace else None
    patches = [tracer.install(tr)] if tr else []
    audit = TrajectoryAudit()
    patches.append(audit.install())
    args.workdir.mkdir(parents=True, exist_ok=True)
    prepared = WORKLOADS[args.workload](args.seed, args.workdir)
    ops = Ops(audit)

    ready = time.monotonic()
    root_span = tr.open("workload", "bench") if tr else None
    prepared.run(ops)
    if tr:
        tr.close(root_span)
    done = time.monotonic()
    for p in reversed(patches):
        p.restore()

    prepared.check(ops)
    counts = audit.counts()
    result = {
        "ready": ready,
        "done": done,
        "events": counts["network_events"] + counts["wm_events"],
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": {label: r for label, r in ops.reasons.items() if r},
        "hashes": {label: _sha256(path) for label, path in prepared.outputs.items()},
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "netepi": netepi.__version__,
        },
    }
    if tr:
        figures = tracer.layer_figures(tr.spans)
        figures["dynamics.events"] = counts["network_events"]
        figures["dynamics.wm_events"] = counts["wm_events"]
        loop = figures["dynamics.loop_self_s"]
        figures["dynamics.loop_events_per_s"] = counts["network_events"] / loop if loop else 0.0
        result["trace"] = {"figures": figures, "spans": tr.to_json()}
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
