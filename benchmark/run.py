"""netepi benchmark: four seeded workloads, end to end or traced per layer.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

    for w in lockdown_dense threshold_scan sirs_endemic cli_pipeline_large; do
        python3 benchmark/run.py --workload $w --seed 1 --seconds 33; done

Run from the root of a checkout; netepi is imported from its `src/`.
Each workload run is a fresh process (benchmark/child.py), because import
cost and peak memory are paid per CLI invocation. Runs repeat, one at a
time, until `--seconds` is spent, and every metric is the median over them.

--trace 0 reports the end-to-end metrics: wall_s (workload wall time),
setup_s (process spawn to workload ready: interpreter, `import netepi.cli`
with numpy, scipy and scipy.signal, input generation), events_per_s
(Gillespie events per second of wall_s) and peak_rss_mb (getrusage of the
run process). --trace 1 first repeats untraced runs, then traced serial
runs, and reports the per-layer metrics of the traced run whose wall time
is the median.

The three times are scaled to a reference host speed. Before and after
every workload run the benchmark times a fixed task that runs no netepi
code (benchmark/probe.py) and multiplies the run's times by REF_PROBE_S
over the mean of those two probe times. On a shared host whose speed
drifts by up to half over minutes this steadies the figures; a change to
netepi does not touch the probe, so it moves them in full. The unscaled
times are printed and kept in the details; per-layer times are unscaled.

Human-readable lines come first; the last line of standard output is one
JSON object. Details (every sample, quartiles, hashes, machine, spans) go
to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import LAYERS
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
CHILD = Path(__file__).resolve().parent / "child.py"
PROBE = Path(__file__).resolve().parent / "probe.py"

CHILD_TIMEOUT_S = 120.0
LAUNCH_CUTOFF_S = 150.0  # no new run after this, so the whole run ends within 180 s
MIN_RUNS = 3  # untraced runs with --trace 0
MIN_TRACE_RUNS = (2, 1)  # untraced, traced runs with --trace 1
UNTRACED_SHARE = 0.5  # of --seconds spent on untraced runs with --trace 1
# Reported times are scaled to a host on which the probe takes this long.
REF_PROBE_S = 1.0

# Metric names and units: the end-to-end ones with --trace 0, the per-layer ones with 1.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(workload: str, seed: int, traced: bool, index: int) -> dict:
    """Spawn one run, wait for it, and return its result with setup and RSS."""
    tag = f"{workload}-seed{seed}-{index}"
    workdir, result_path, log_path = OUT / tag, OUT / f"{tag}.json", OUT / f"{tag}.log"
    shutil.rmtree(workdir, ignore_errors=True)
    result_path.unlink(missing_ok=True)
    env = dict(os.environ, NETEPI_WORKERS="1")
    cmd = [sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(traced)), "--workdir", str(workdir), "--result", str(result_path)]
    with open(log_path, "w", encoding="utf-8") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=log, start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # SIGTERM or Ctrl-C: stop the run and what it started, then go
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or not result_path.is_file():
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        return {"crashed": f"exit code {proc.returncode}: {tail}", "traced": traced}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result_path.unlink()
    log_path.unlink()
    result.update(
        traced=traced,
        setup_s=result["ready"] - spawned,
        wall_s=result["done"] - result["ready"],
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    )
    result["events_per_s"] = result["events"] / result["wall_s"]
    return result


def probe() -> dict:
    """Spawn the host-speed probe, wait for it, and return its two times."""
    spawned = time.monotonic()
    out = subprocess.run([sys.executable, str(PROBE)], cwd=ROOT, stdin=subprocess.DEVNULL,
                         capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    stamps = json.loads(out.stdout)
    return {"setup_s": stamps["ready"] - spawned, "work_s": stamps["done"] - stamps["ready"]}


def scale(result: dict, probe_before: dict, probe_after: dict) -> None:
    """Add the run's times scaled by the probes timed just before and after it."""
    mean = sum(p["setup_s"] + p["work_s"] for p in (probe_before, probe_after)) / 2
    factor = REF_PROBE_S / mean
    result["probe"] = [probe_before, probe_after]
    result["raw"] = {name: result[name] for name in ("setup_s", "wall_s", "events_per_s")}
    result["setup_s"] *= factor
    result["wall_s"] *= factor
    result["events_per_s"] = result["events"] / result["wall_s"]


def repeat(workload: str, seed: int, traced: bool, until: float,
           min_runs: int, start: float, results: list[dict]) -> None:
    """Append runs until the next one would end after `until` (min_runs at least)."""
    durations: list[float] = []
    probe_before = probe()
    while True:
        now = time.monotonic()
        if now - start > LAUNCH_CUTOFF_S:
            return
        if len(durations) >= min_runs and now + statistics.median(durations) > until:
            return
        result = run_child(workload, seed, traced, len(results))
        results.append(result)
        if "crashed" in result:
            return
        probe_after = probe()
        scale(result, probe_before, probe_after)
        probe_before = probe_after
        durations.append(time.monotonic() - now)


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def machine() -> dict:
    """Processor, caches and commit, read from procfs, sysfs and .git."""
    model = None
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level and kind != "Instruction":
            caches[f"L{level}"] = _read(index / "size")
    head = _read(ROOT / ".git" / "HEAD")
    commit = head
    if head and head.startswith("ref: "):
        ref = head[5:]
        commit = _read(ROOT / ".git" / ref)
        for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
            if commit is None and line.endswith(" " + ref):
                commit = line.split()[0]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "platform": platform.platform(),
        "git_commit": commit or "unknown (not a git checkout)",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "netepi" / "__init__.py").is_file():
        print(f"error: no netepi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    start = time.monotonic()
    results: list[dict] = []
    if args.trace:
        untraced_min, traced_min = MIN_TRACE_RUNS
        repeat(args.workload, args.seed, False, start + UNTRACED_SHARE * args.seconds,
               untraced_min, start, results)
        repeat(args.workload, args.seed, True, start + args.seconds, traced_min,
               start, results)
    else:
        repeat(args.workload, args.seed, False, start + args.seconds, MIN_RUNS,
               start, results)

    ok = [r for r in results if "crashed" not in r]
    untraced = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    if not untraced or (args.trace and not traced):
        for r in results:
            print(r.get("crashed", ""), file=sys.stderr)
        print("error: no run completed", file=sys.stderr)
        return 1

    # One operation list per run; a crashed run fails all of its operations.
    per_run = ok[0]["attempted"]
    attempted = sum(r["attempted"] for r in ok) + per_run * (len(results) - len(ok))
    failed = sum(r["failed"] for r in ok) + per_run * (len(results) - len(ok))
    # Every repeat of one seed must write byte-identical outputs.
    reference = ok[0]["hashes"]
    for r in ok[1:]:
        for label, digest in r["hashes"].items():
            if digest != reference.get(label) and label not in r["failures"]:
                r["failures"][label] = [f"output hash {digest} differs from first run"]
                failed += 1

    samples = {name: [r[name] for r in untraced] for name in END_TO_END_UNITS}
    stats = {name: summary(values) for name, values in samples.items()}
    raw = {name: summary([r["raw"][name] for r in untraced]) for name in untraced[0]["raw"]}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "netepi_workers": 1,
        "machine": machine(),
        "probes": [r["probe"] for r in ok],
        "versions": ok[0]["versions"],
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": [r.get("crashed") or r["failures"] for r in results
                     if "crashed" in r or r["failures"]],
        "hashes": reference,
        "events_per_run": ok[0]["events"],
        "end_to_end": {name: {**stats[name], "unit": END_TO_END_UNITS[name],
                              "samples": samples[name]} for name in END_TO_END_UNITS},
        "unscaled": raw,
    }

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"NETEPI_WORKERS=1")
    for name, s in stats.items():
        print(f"{name:14s} median {s['median']:.6g} {END_TO_END_UNITS[name]}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}")
    for name, s in raw.items():
        print(f"unscaled {name:14s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
              f"q3 {s['q3']:.6g}")
    print(f"error_rate     {failed / attempted:.6g}  ({failed} failed / {attempted} attempted)")
    for label, digest in reference.items():
        print(f"sha256 {label:16s} {digest}")

    if args.trace:
        # Spans are unscaled seconds, so the walls they are set against are too.
        wall = raw["wall_s"]["median"]
        traced_walls = [r["raw"]["wall_s"] for r in traced]
        chosen = sorted(traced, key=lambda r: r["raw"]["wall_s"])[(len(traced) - 1) // 2]
        figures = chosen["trace"]["figures"]
        figures["trace.overhead_s"] = statistics.median(traced_walls) - wall
        metrics = {name: {"value": figures[name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
        shares = {layer: figures[f"{layer}.self_s"] / chosen["raw"]["wall_s"]
                  for layer in LAYERS}
        shares["unattributed"] = 1.0 - sum(shares.values())
        report["per_layer"] = {"traced_wall_s": summary(traced_walls), "metrics": metrics,
                               "layer_shares": shares,
                               "samples": "one traced run, the median of traced_wall_s.n"}
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(chosen["trace"]["spans"]), encoding="utf-8")
        print(f"traced wall    median {statistics.median(traced_walls):.6g} s  "
              f"n={len(traced_walls)}  spans in {spans_path.relative_to(ROOT)}")
        print("layer shares   " + "  ".join(f"{k} {v:.1%}" for k, v in shares.items()))
        for name, m in metrics.items():
            print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {name: {"value": stats[name]["median"], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"machine {json.dumps(report['machine'])}  versions {json.dumps(report['versions'])}")
    print(f"details in {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
