"""One round of a workload, in a fresh interpreter so that duadiq's module
caches start empty.

Reads a JSON spec on stdin: {"items": [...], "trace": bool, "trace_file":
path or null}; with --probe it only imports the package.  Prints one JSON
line: the monotonic time at which `import duadiq` finished (the parent
subtracts its spawn time) and for a round the per-item latencies, exit
codes, printed output and captured constructions, the round's wall time,
the peak resident memory and, when traced, the per-layer metrics.  Item
times come raw and scaled by the reference loop (see calib.py).
"""

import time  # noqa: I001  (duadiq's import is timed, so it comes first)

import duadiq

IMPORTED = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import probes  # noqa: E402
from calib import Sampler, reference_loop  # noqa: E402
from duadiq import cli, quantum  # noqa: E402
from duadiq.cyclic import DefiningSet  # noqa: E402

# the reference loop beside the import; its first run pays for warming up
REF_IMPORT = min(reference_loop(), reference_loop())


def run_item(item: dict) -> dict:
    if item["kind"] == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(item["argv"])
        return {"rc": rc, "error": None, "stdout": buf.getvalue()}
    a = DefiningSet(item["n"], frozenset(item["members"]))
    quantum.cyclic_zero_dim(a, budget=item["budget"])
    return {"rc": 0, "error": None, "stdout": ""}


def run_round(spec: dict) -> dict:
    captures = probes.Captures()
    captures.install()
    tracer = probes.Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()
    results, times = [], []
    clock = time.perf_counter
    with Sampler() as speed:
        for i, item in enumerate(spec["items"]):
            if tracer is not None:
                tracer.item = i
            t0 = clock()
            try:
                res = run_item(item)
            except Exception as exc:  # a failed operation is counted, not fatal
                res = {"rc": None, "error": f"{type(exc).__name__}: {exc}", "stdout": ""}
            times.append((t0, clock()))
            res["captures"] = captures.take()
            results.append(res)
    for res, (t0, t1) in zip(results, times):
        res["s"], res["scaled_s"] = t1 - t0, speed.scaled(t0, t1)
    wall = sum(r["s"] for r in results)
    out = {
        "imported": IMPORTED,
        "ref_import": REF_IMPORT,
        "wall_s": wall,
        "results": results,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": {"backend": duadiq.active_backend(), "python": platform.python_version(),
                "numpy": np.__version__},
    }
    if tracer is not None:
        out["layers"] = tracer.metrics(wall)
        if spec.get("trace_file"):
            with open(spec["trace_file"], "w", encoding="utf-8") as f:
                json.dump({"spans": tracer.spans, "per_item": tracer.per_item()}, f)
    return out


def main() -> None:
    if sys.argv[1:] == ["--probe"]:
        out = {"imported": IMPORTED, "ref_import": REF_IMPORT}
    else:
        out = run_round(json.loads(sys.stdin.read()))
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
