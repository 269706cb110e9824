"""Wrappers placed around duadiq's public functions from outside the package.

Two kinds, both installed by replacing module attributes, so calls between
the package's own modules pass through them too:

* captures (always on): the results of the constructions, kept for the
  output checks.  They only store a return value; they time nothing.
* spans (traced runs only): name, start, end, parent span and item id of
  every call into the listed functions, kept in memory.  A span's self time
  is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

from duadiq import _kernels, cli, cyclic, distance, duadic, extfield, linalg, quantum

# (module or class, attribute, span name); the name's first part is the layer
TRACED = (
    (cli, "main", "cli"),
    (quantum, "extend_nearly_self_orthogonal", "quantum.extend"),
    (quantum, "extended_duadic_quantum", "quantum.construct"),
    (quantum, "general_zero_dim", "quantum.construct"),
    (quantum, "cyclic_zero_dim", "quantum.construct"),
    (distance, "min_distance_exact", "distance.min_distance_exact"),
    (distance, "duadic_distances", "distance.duadic_distances"),
    (distance, "weight_histograms", "distance.weight_histograms"),
    (distance, "weight_histograms_binary", "distance.weight_histograms"),
    (distance, "_info_set_bounds", "distance.info_set"),
    (_kernels, "gray_weight_hists", "kernels"),
    (_kernels, "gray_weight_hists_binary", "kernels_binary"),
    (linalg, "rref", "linalg.rref"),
    (linalg, "complement_basis", "linalg.complement_basis"),
    (linalg, "gram_matrix", "linalg.gram_matrix"),
    (linalg, "subspace_intersection", "linalg.subspace_intersection"),
    (linalg, "nullspace", "linalg.nullspace"),
    (extfield, "ext_build", "extfield.ext_build"),
    (extfield, "minimal_poly", "extfield.minimal_poly"),
    (cyclic.CyclicCode, "gen_poly", "cyclic.gen_poly"),
    (duadic, "find_splittings", "duadic.find_splittings"),
)
LAYERS = ("cli", "quantum", "distance", "kernels", "linalg", "extfield", "cyclic", "duadic")
# a call below which none of these ran was answered from a cache
SEARCH_SPANS = ("kernels", "kernels_binary", "distance.info_set")


def _replace(owner, attr: str, make) -> None:
    old = owner.__dict__[attr]
    if isinstance(old, property):
        setattr(owner, attr, property(make(old.fget)))
    else:
        setattr(owner, attr, make(old))


def _encode(gen) -> list[str]:
    return ["".join(map(str, row.tolist())) for row in gen]


class Captures:
    """Construction results of the current item, for the checks."""

    def __init__(self):
        self.items: list[dict] = []
        self._duadic: list = []

    def install(self) -> None:
        _replace(distance, "duadic_distances", self._keep_duadic)
        _replace(quantum, "extended_duadic_quantum", functools.partial(self._keep, "extended_duadic_quantum"))
        _replace(quantum, "cyclic_zero_dim", functools.partial(self._keep, "cyclic_zero_dim"))

    def _keep_duadic(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._duadic.append(result)
            return result
        return wrapper

    def _keep(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            first = len(self._duadic)
            params, code = fn(*args, **kwargs)
            passes = self._duadic[first:]
            d = params.d
            self.items.append({
                "fn": name, "n": params.n, "k": params.k, "lo": d.lo, "hi": d.hi,
                "work": d.work, "gen": _encode(code.gen),
                "hists": [list(passes[-1].even_hist), list(passes[-1].coset_hist)] if passes else None,
            })
            return params, code
        return wrapper

    def take(self) -> list[dict]:
        out, self.items, self._duadic = self.items, [], []
        return out


def _kernel_extra(planes: int):
    def extra(args, result):
        words = int(result.sum())
        return {"words": words, "bytes": words * planes * args[0].shape[1] * 8}
    return extra


EXTRA = {
    "kernels": _kernel_extra(2),
    "kernels_binary": _kernel_extra(1),
    "distance.info_set": lambda args, result: {"work": int(result.work)},
}


class Tracer:
    """Spans in memory: [name, start, end, parent index, item, extra]."""

    def __init__(self):
        self.spans: list[list] = []
        self.item = None
        self._stack: list[int] = []

    def install(self) -> None:
        for owner, attr, name in TRACED:
            _replace(owner, attr, functools.partial(self._wrap, name))

    def _wrap(self, name: str, fn):
        spans, stack, extra = self.spans, self._stack, EXTRA.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, result)
            return result
        return traced

    def _self_times(self) -> list[float]:
        """Each span's duration minus the time covered by its child spans."""
        own = [t1 - t0 for _, t0, t1, _, _, _ in self.spans]
        for _, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= t1 - t0
        return own

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the recorded spans."""
        spans = self.spans
        searched = [False] * len(spans)
        for name, _, _, parent, _, _ in spans:
            if name in SEARCH_SPANS:
                while parent >= 0 and not searched[parent]:
                    searched[parent] = True
                    parent = spans[parent][3]
        calls = defaultdict(int)
        incl = defaultdict(float)
        self_s = defaultdict(float)
        hits = defaultdict(int)
        sums = defaultdict(int)
        for i, ((name, t0, t1, _, _, extra), own) in enumerate(zip(spans, self._self_times())):
            calls[name] += 1
            incl[name] += t1 - t0
            self_s[name] += own
            if not searched[i]:
                hits[name] += 1
            for key, value in (extra or {}).items():
                sums[f"{name}.{key}"] += value
        m: dict[str, float] = {}
        for k in ("kernels", "kernels_binary"):
            m[f"{k}.calls"] = calls[k]
            m[f"{k}.words"] = sums[f"{k}.words"]
            m[f"{k}.s"] = incl[k]
            m[f"{k}.words_per_s"] = sums[f"{k}.words"] / incl[k] if incl[k] else 0.0
            m[f"{k}.bytes_computed"] = sums[f"{k}.bytes"]
        info = "distance.info_set"
        m[f"{info}.calls"] = calls[info]
        m[f"{info}.work"] = sums[f"{info}.work"]
        m[f"{info}.s"] = incl[info]
        m[f"{info}.work_per_s"] = sums[f"{info}.work"] / incl[info] if incl[info] else 0.0
        for name in ("distance.min_distance_exact", "distance.duadic_distances"):
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.cache_hits"] = hits[name]
        m["distance.min_distance_exact.self_s"] = self_s["distance.min_distance_exact"]
        m["distance.weight_histograms.calls"] = calls["distance.weight_histograms"]
        m["distance.weight_histograms.self_s"] = self_s["distance.weight_histograms"]
        m["linalg.rref.calls"] = calls["linalg.rref"]
        for name in ("linalg.rref", "linalg.complement_basis", "linalg.gram_matrix",
                     "linalg.subspace_intersection", "linalg.nullspace",
                     "extfield.ext_build", "extfield.minimal_poly", "cyclic.gen_poly",
                     "duadic.find_splittings"):
            m[f"{name}.s"] = incl[name]
        m["extfield.ext_build.calls"] = calls["extfield.ext_build"]
        m["quantum.extend.self_s"] = self_s["quantum.extend"]
        m["quantum.construct.self_s"] = self_s["quantum.construct"]
        m["cli.self_s"] = self_s["cli"]
        layer = defaultdict(float)
        for name, value in self_s.items():
            layer[name.split(".")[0].replace("kernels_binary", "kernels")] += value
        for name in LAYERS:
            m[f"layer.{name}.self_s"] = layer[name]
        m["trace.wall_s"] = wall_s
        m["trace.unattributed_s"] = wall_s - sum(layer.values())
        return m

    def per_item(self) -> dict:
        """Kernel words and self time per span name, for each item."""
        out: dict = defaultdict(lambda: defaultdict(float))
        for (name, _, _, _, item, extra), own in zip(self.spans, self._self_times()):
            out[item][f"self_s.{name}"] += own
            if name in ("kernels", "kernels_binary"):
                out[item][f"{name}.words"] += extra["words"]
        return {str(k): dict(v) for k, v in out.items()}
