#!/usr/bin/env python3
"""duadiq benchmark: one workload, measured end to end or per layer.

    python3 perfbench/run.py --workload desk-exact --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src.  The run
repeats whole rounds of the workload, each in a fresh interpreter (see
worker.py), until --seconds have passed and a workload's minimum of rounds
is done.  It checks the first round's outputs (see workloads.py), requires
every later round to report the same, and prints as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}.  End-to-end times
are scaled by a reference loop timed all through the run (see calib.py).  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 rounds
alternate untraced and traced, and the metrics are the per-layer ones of
the traced rounds.  The line before the last records the environment.  Run
records and span files go to perfbench/out/.  --toy shrinks every workload
to a few seconds, for the benchmark's tests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from calib import REF_S
from checks import CheckError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7
# Rounds per untraced run, at least: the machine this was tuned on has slow
# phases lasting seconds, and the faster half of a few rounds is steady.
MIN_ROUNDS = {"desk-exact": 2, "research-interval": 5, "search-sweep": 3}
ROUND_TIMEOUT_S = 150
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("DUADIQ_BUDGET", "DUADIQ_BACKEND")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(spec: dict | None) -> tuple[dict, float]:
    """Run worker.py once; returns its JSON line and its set-up time."""
    args = [sys.executable, str(HERE / "worker.py")] + ([] if spec else ["--probe"])
    t_spawn = time.monotonic()
    proc = subprocess.run(args, input=json.dumps(spec) if spec else "", capture_output=True,
                          text=True, env=worker_env(), cwd=ROOT, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out, out["imported"] - t_spawn


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile by nearest rank: a latency that was observed."""
    ordered = sorted(values)
    return ordered[math.ceil(q / 100 * len(ordered)) - 1]


def typical_wall(rounds: list[dict]) -> float:
    """Median scaled wall time of the faster half of the rounds: a slow phase
    of the machine only ever adds time, and can outlast the scaling."""
    walls = sorted(sum(r["scaled_s"]) for r in rounds)
    return statistics.median(walls[: max(1, len(walls) // 2)])


def reported(round_: dict) -> list[dict]:
    """What a round showed its user, without timings: equal across rounds."""
    return [{k: r[k] for k in ("rc", "error", "stdout", "captures")} for r in round_["results"]]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="tiny inputs, for the benchmark's tests")
    args = p.parse_args(argv)
    if not (SRC / "duadiq" / "__init__.py").is_file():
        print(f"no duadiq sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    items = workloads.items(args.workload, args.seed, args.toy)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-toy' if args.toy else ''}"

    min_rounds = 2 if args.trace else MIN_ROUNDS[args.workload]
    start = time.monotonic()
    rounds: list[dict] = []
    errors: list[str] = []
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        trace_file = OUT / f"spans-{tag}-round{len(rounds)}.json" if traced else None
        spec = {"items": items, "trace": traced, "trace_file": trace_file and str(trace_file)}
        res, setup = spawn(spec)
        res["setup_s"], res["scaled_s"] = setup, [x["scaled_s"] for x in res["results"]]
        if not rounds:
            try:
                workloads.check_round(args.workload, items, res["results"])
            except CheckError as exc:
                errors.append(str(exc))
        elif reported(res) != reported(rounds[0]):
            errors.append(f"round {len(rounds)} reported other results than round 0")
        rounds.append(res)
        if time.monotonic() - start >= args.seconds and len(rounds) >= min_rounds:
            break

    plain = rounds[0::2] if args.trace else rounds
    results = [x for r in rounds for x in r["results"]]
    failures = [f"rc={x['rc']} {x['error'] or ''}" for x in results if x["rc"] != 0]
    outputs = [b for it, x in zip(items, rounds[0]["results"]) if x["rc"] == 0
               for b in workloads.intervals(it, x)]
    if args.trace:
        # every layer figure comes from one round, so that self times add up
        values = dict(min(rounds[1::2], key=lambda r: sum(r["scaled_s"]))["layers"])
        values["trace.overhead_s"] = typical_wall(rounds[1::2]) - typical_wall(plain)
        values["exact_codes"] = sum(1 for _, lo, hi in outputs if lo == hi)
    else:
        setups = [s * REF_S / out["ref_import"]
                  for out, s in (spawn(None) for _ in range(SETUP_PROBES))]
        latencies = [t for r in plain for x, t in zip(r["results"], r["scaled_s"]) if x["rc"] == 0]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": typical_wall(plain),
            "item_p50_s": statistics.median(latencies),
            "item_p90_s": percentile(latencies, 90),
            "d_lo_sum": sum(lo for _, lo, _ in outputs),
            "d_hi_sum": sum(n if hi is None else hi for n, _, hi in outputs),
            "peak_rss_mb": max(r["rss_mb"] for r in rounds),
        }
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}

    env = dict(rounds[0]["env"], nproc=os.cpu_count(), rounds=len(rounds),
               items_per_round=len(items), workload=args.workload, seed=args.seed)
    record = {"env": env, "errors": errors, "failures": failures, "metrics": metrics,
              "items": items,
              "rounds": [{"traced": bool(args.trace) and i % 2 == 1, "setup_s": r["setup_s"],
                          "wall_s": r["wall_s"], "scaled_wall_s": sum(r["scaled_s"]),
                          "s": [x["s"] for x in r["results"]], "scaled_s": r["scaled_s"]}
                         for i, r in enumerate(rounds)]}
    (OUT / f"run-{tag}.json").write_text(json.dumps(record, indent=1))
    for line in (errors + failures)[:20]:
        print(f"error: {line}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": not errors, "attempted": len(results),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
