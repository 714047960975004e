"""Host-speed probe: a fixed task that runs no netepi code; started by run.py.

    python3 benchmark/probe.py

Imports the libraries netepi imports, then runs a fixed mix of pure-Python
graph building and numpy work, and prints one JSON object with the
CLOCK_MONOTONIC stamps at which the imports and the work were done.
run.py times it in a fresh process before and after every workload run.
On a shared host the speed the benchmark gets drifts by up to half over
minutes; a workload run and the probes around it slow down together, so
the ratio of the two holds steady where each alone does not.
"""

from __future__ import annotations

import argparse  # noqa: F401  the modules netepi.cli imports
import concurrent.futures  # noqa: F401
import json
import random
import time

import numpy as np
import scipy.signal  # noqa: F401
import scipy.special  # noqa: F401

READY = time.monotonic()


def work() -> int:
    """Preferential attachment on 20 000 nodes in Python, then array work."""
    rng = random.Random(12345)
    targets = [0, 1, 2, 3]
    adjacency: dict[int, list[int]] = {v: [] for v in range(20_000)}
    for v in range(4, 20_000):
        chosen = {targets[rng.randrange(len(targets))] for _ in range(4)}
        for u in chosen:
            adjacency[v].append(u)
            adjacency[u].append(v)
            targets.extend((u, v))
    edges = np.array([(v, u) for v, nbrs in adjacency.items() for u in nbrs if u < v])
    keys = np.random.default_rng(12345).random(len(edges))
    order = np.argsort(keys, kind="stable")
    degrees = np.bincount(edges[order].ravel(), minlength=len(adjacency))
    return int(degrees.sum() + np.unique(edges[:, 0]).size)


CHECK = 179738  # work()'s result; a different one means the probe ran other work


def main() -> None:
    if work() != CHECK:
        raise SystemExit("host-speed probe computed a wrong result")
    print(json.dumps({"ready": READY, "done": time.monotonic()}))


if __name__ == "__main__":
    main()
