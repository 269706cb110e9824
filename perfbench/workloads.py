"""The three workloads: their inputs, and the checks on their outputs.

An item is one operation a user would run: a CLI command (kind "cli") or
one candidate of the code search through the library (kind "cyclic").  The
worker runs the items; the functions here check what came back, using only
the arithmetic in checks.py.
"""

from __future__ import annotations

import csv
import io
import json
import random

import checks
from checks import CheckError, require

DESK_BUDGET = 1 << 30        # the CLI's default budget, passed explicitly
RESEARCH_BUDGET = 10_000_000
SWEEP_BUDGET = 65536
SWEEP_MAX_N = 41
TOY_RESEARCH_BUDGET = 10_000
TOY_SWEEP_MAX_N = 15

# The desk-scale commands of the README, the heavy one first.
DESK_COMMANDS = (
    "quantum -n 29 --qr",
    "table --max-n 23",
    "quantum -n 23 --qr",
    "quantum -n 17 --duadic-index 1",
    "distance -n 23 --leaders 1",
    "distance -n 23 --leaders 1 --via-binary",
    "distance -n 13 --leaders 1 --fixed-subcode -1",
)
# The paper's research-scale defining sets and their records [[N, 0, d]]:
# the program's hi may never undercut the record d.
RESEARCH = {
    "quantum -n 141 --leaders 2,3,10": (144, 20),
    "quantum -n 123 --leaders 1,2,6,7,9,11": (126, 22),
}
# Classical distances of the n = 23 Golay-like code (both routes).
GOLAY_D = 7

WORKLOADS = ("desk-exact", "research-interval", "search-sweep")


def _cli(command: str, budget: int) -> dict:
    return {"kind": "cli", "argv": command.split() + ["--format", "json", "--budget", str(budget)]}


def cosets4(n: int) -> list[frozenset[int]]:
    """Nonzero 4-cyclotomic cosets mod n, ordered by leader."""
    seen: set[int] = set()
    out = []
    for a in range(1, n):
        if a in seen:
            continue
        c, x = set(), a
        while x not in c:
            c.add(x)
            x = 4 * x % n
        seen |= c
        out.append(frozenset(c))
    return out


def sweep_candidates(max_n: int) -> list[tuple[int, frozenset[int]]]:
    """Every union A of nonzero 4-cyclotomic cosets mod odd n <= max_n with
    A and -2A disjoint: the paper's search space for [[2(n-|A|), 0, d]]."""
    out = []
    for n in range(3, max_n + 1, 2):
        cos = cosets4(n)
        for mask in range(1, 1 << len(cos)):
            a = frozenset().union(*(c for i, c in enumerate(cos) if mask >> i & 1))
            if all((-2 * t) % n not in a for t in a):
                out.append((n, a))
    return out


def items(workload: str, seed: int, toy: bool = False) -> list[dict]:
    """The operations of one round; the seed fixes the order of the
    research and search items.  Desk commands keep the README order, since
    later commands reuse what earlier ones cached."""
    rng = random.Random(seed)
    if workload == "desk-exact":
        commands = DESK_COMMANDS[1:] if toy else DESK_COMMANDS
        return [_cli(c, DESK_BUDGET) for c in commands]
    if workload == "research-interval":
        budget = TOY_RESEARCH_BUDGET if toy else RESEARCH_BUDGET
        out = [_cli(c, budget) for c in RESEARCH]
        rng.shuffle(out)
        return out
    if workload == "search-sweep":
        max_n = TOY_SWEEP_MAX_N if toy else SWEEP_MAX_N
        out = [{"kind": "cyclic", "n": n, "members": sorted(a), "budget": SWEEP_BUDGET}
               for n, a in sweep_candidates(max_n)]
        rng.shuffle(out)
        return out
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# outputs: every item result is {"rc", "error", "stdout", "captures"}, where
# captures are the construction results seen during the item (see probes.py)
# ---------------------------------------------------------------------------

def _command(item: dict) -> str:
    return " ".join(item["argv"][: item["argv"].index("--format")])


def _gen(capture: dict):
    return [[int(ch) for ch in row] for row in capture["gen"]]


def intervals(item: dict, result: dict) -> list[tuple[int, int, int | None]]:
    """(length, lo, hi) of every distance the item reported to its user."""
    if item["kind"] == "cyclic":
        c = result["captures"][-1]
        return [(c["n"], c["lo"], c["hi"])]
    if item["argv"][0] == "table":
        rows = csv.DictReader(io.StringIO(result["stdout"]))
        return [(n, lo, hi) for n, _, lo, hi in (checks.parse_params(r["params"]) for r in rows)]
    out = json.loads(result["stdout"])
    if item["argv"][0] == "distance":
        return [(int(item["argv"][item["argv"].index("-n") + 1]), out["lo"], out["hi"])]
    return [(out["n"], out["d_lo"], out["d_hi"])]


def _check_extended_duadic(c: dict, label: str) -> None:
    """An extended duadic output: self-dual generator, a weight enumerator
    obeying MacWilliams, and a reported d equal to its minimum weight."""
    label = f"{label} [[{c['n']},0]]"
    checks.check_self_dual(_gen(c), c["n"], label)
    checks.check_zero_dim_interval(c["n"], c["k"], c["lo"], c["hi"], label)
    require(c["hists"] is not None, f"{label}: no exact ingredient pass")
    a = checks.extended_duadic_enumerator(*c["hists"])
    require(len(a) == c["n"] + 1, f"{label}: enumerator has {len(a)} terms")
    checks.check_macwilliams(a, label)
    d = checks.enumerator_min_weight(a)
    require(c["lo"] == c["hi"] == d, f"{label}: d in [{c['lo']}, {c['hi']}] but min weight {d}")


def check_desk(items_: list[dict], results: list[dict]) -> None:
    extended = {}
    for item, res in zip(items_, results):
        if res["rc"] != 0:
            continue
        cmd = _command(item)
        argv = item["argv"]
        for c in res["captures"]:
            require(c["fn"] == "extended_duadic_quantum", f"{cmd}: unexpected capture {c['fn']}")
            _check_extended_duadic(c, cmd)
            extended[c["n"]] = c
        if argv[0] == "table":
            rows = list(csv.DictReader(io.StringIO(res["stdout"])))
            checks.check_table(rows, int(argv[argv.index("--max-n") + 1]), cmd)
            require(len(res["captures"]) == len(rows), f"{cmd}: {len(rows)} rows, "
                    f"{len(res['captures'])} constructions")
        elif argv[0] == "quantum":
            out = json.loads(res["stdout"])
            label = f"{cmd} -> [[{out['n']},{out['k']}]]"
            checks.check_zero_dim_interval(out["n"], out["k"], out["d_lo"], out["d_hi"], label)
            checks.check_literature(out["n"], out["d_lo"], out["d_hi"], label)
            (c,) = res["captures"]
            require((c["n"], c["lo"], c["hi"]) == (out["n"], out["d_lo"], out["d_hi"]),
                    f"{label}: printed d differs from the construction's")
        else:
            out = json.loads(res["stdout"])
            n = int(argv[argv.index("-n") + 1])
            require(out["hi"] is not None and out["lo"] <= out["hi"],
                    f"{cmd}: interval [{out['lo']}, {out['hi']}]")
            if n == 23:
                require(out["lo"] == out["hi"] == GOLAY_D,
                        f"{cmd}: d in [{out['lo']}, {out['hi']}], expected {GOLAY_D}")
            elif n == 13:
                # the extended QR code punctured at its unit coordinate is
                # the odd-like [13, 7] code whose distance was asked for
                require(14 in extended, f"{cmd}: no [[14,0]] output to compare with")
                d = checks.min_weight([row[:-1] for row in _gen(extended[14])])
                require(out["lo"] == out["hi"] == d,
                        f"{cmd}: d in [{out['lo']}, {out['hi']}], own enumeration gives {d}")


def check_research(items_: list[dict], results: list[dict]) -> None:
    for item, res in zip(items_, results):
        if res["rc"] != 0:
            continue
        cmd = _command(item)
        budget = int(item["argv"][item["argv"].index("--budget") + 1])
        n_total, record = RESEARCH[cmd]
        out = json.loads(res["stdout"])
        label = f"{cmd} -> [[{out['n']},{out['k']},{out['d_lo']}-{out['d_hi']}]]"
        require((out["n"], out["k"]) == (n_total, 0), f"{label}: expected [[{n_total},0]]")
        checks.check_zero_dim_interval(out["n"], out["k"], out["d_lo"], out["d_hi"], label)
        hi = n_total if out["d_hi"] is None else out["d_hi"]
        require(record <= hi, f"{label}: hi {hi} below the paper's record d = {record}")
        (c,) = res["captures"]
        require((c["n"], c["lo"], c["hi"]) == (out["n"], out["d_lo"], out["d_hi"]),
                f"{label}: printed d differs from the construction's")
        require(c["work"] <= budget, f"{label}: work {c['work']} exceeds the budget {budget}")
        checks.check_self_dual(_gen(c), n_total, label)


def check_sweep(items_: list[dict], results: list[dict]) -> None:
    for item, res in zip(items_, results):
        if res["rc"] != 0:
            continue
        n, members = item["n"], item["members"]
        (c,) = res["captures"]
        label = f"n={n} A={members} -> [[{c['n']},{c['k']},{c['lo']}-{c['hi']}]]"
        require(c["n"] == 2 * (n - len(members)), f"{label}: expected N = 2(n - |A|)")
        checks.check_zero_dim_interval(c["n"], c["k"], c["lo"], c["hi"], label)
        gen = _gen(c)
        checks.check_self_dual(gen, c["n"], label)
        if c["n"] // 2 <= checks.BRUTE_MAX_DIM:
            d = checks.min_weight(gen)
            hi = c["n"] if c["hi"] is None else c["hi"]
            require(c["lo"] <= d <= hi, f"{label}: own enumeration gives d = {d}")


CHECKS = {"desk-exact": check_desk, "research-interval": check_research,
          "search-sweep": check_sweep}


def check_round(workload: str, items_: list[dict], results: list[dict]) -> None:
    try:
        CHECKS[workload](items_, results)
    except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
        raise CheckError(f"malformed output: {type(exc).__name__}: {exc}") from exc
