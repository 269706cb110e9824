"""Command-line front end.

Commands: cosets, splittings, quantum, distance, table, each taking only
the flags it reads.  The budget is read once, here: --budget, else
DUADIQ_BUDGET, else 2^30.  Identical flags produce byte-identical output.
Each command builds all three forms of its result, a json payload, csv
rows under a header and text lines, and one renderer prints the one
asked for; table prints csv in every format.  Exit codes: 0 success, 2
invalid input, 3 no applicable construction, 4 internal invariant failure
or an exact computation that exceeded the budget, 141 (as for a command
killed by SIGPIPE) when the reader closed standard output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys

from . import distance as dist, duadic, quantum
from .cyclic import CyclicCode, DefiningSet, all_cosets
from .errors import BudgetExceededError, InputError, InvariantError, NotApplicableError
from .extfield import is_prime, mult_order

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOT_APPLICABLE = 3
EXIT_INVARIANT = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE


def default_budget() -> int:
    """The budget without --budget: DUADIQ_BUDGET, else distance.DEFAULT_BUDGET."""
    env = os.environ.get("DUADIQ_BUDGET", "").strip()
    if env:
        value = int(env)
        if value < 0:
            raise InputError("DUADIQ_BUDGET must be nonnegative")
        return value
    return dist.DEFAULT_BUDGET


def _parse_leaders(text: str) -> list[int]:
    try:
        return [int(x) for x in text.replace(" ", "").split(",") if x != ""]
    except ValueError as exc:
        raise InputError(f"bad leader list {text!r}: {exc}") from exc


@functools.cache  # argparse keeps no state between parses, so one parser serves every call
def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "csv", "text"), default="text",
                     help="output format (default text; table always emits csv)")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=int, default=None,
                        help="max words one distance computation enumerates "
                             "(default DUADIQ_BUDGET, else 2^30)")
    expand = argparse.ArgumentParser(add_help=False)
    expand.add_argument("--expand", action="store_true",
                        help="print full defining sets, not just coset leaders")

    p = argparse.ArgumentParser(prog="duadiq", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("cosets", parents=[fmt], help="cyclotomic cosets mod n")
    pc.add_argument("-n", type=int, required=True)
    pc.add_argument("-q", type=int, default=4, choices=(2, 4))

    ps = sub.add_parser("splittings", parents=[fmt, expand], help="splittings of Z_n over GF(4)")
    ps.add_argument("-n", type=int, required=True)
    ps.add_argument("--multiplier", type=int, default=None,
                    help="only splittings given by this multiplier")

    pq = sub.add_parser("quantum", parents=[fmt, budget], help="construct a quantum code")
    pq.add_argument("-n", type=int, required=True)
    group = pq.add_mutually_exclusive_group(required=True)
    group.add_argument("--leaders", type=str, help="comma-separated coset leaders of the defining set")
    group.add_argument("--qr", action="store_true", help="quadratic-residue route (n prime)")
    group.add_argument("--duadic-index", type=int, default=None,
                       help="use the i-th enumerated splitting (0-based)")
    group.add_argument("--from-annotation", metavar="FILE",
                       help="derive [[2k,0]] from the annotated dual-containing [n,k,d] code "
                            "in this JSON file")
    pq.add_argument("--secondary-steps", type=int, default=0,
                    help="also derive [[n-i,k,d-i]] for i=1..steps")

    pd = sub.add_parser("distance", parents=[fmt, budget, expand], help="minimum-distance bound report")
    pd.add_argument("-n", type=int, required=True)
    pd.add_argument("--leaders", type=str, required=True)
    pd.add_argument("--via-binary", action="store_true",
                    help="exit 3 unless ord_n(2) = ord_n(4); a binary basis walks GF(2) either way")
    pd.add_argument("--fixed-subcode", type=int, action="append", default=[],
                    metavar="A", help="add fixed-subcode bounds for multiplier a (repeatable)")

    pt = sub.add_parser("table", parents=[fmt, budget], help="reproduce the small-length results table")
    pt.add_argument("--max-n", type=int, required=True)
    return p


def _render(fmt: str, payload: dict | None, header: list[str], rows: list[list], lines: list[str]) -> None:
    """Print one result in the chosen format: payload as one line of json,
    header and rows as csv, or the text lines."""
    if fmt == "json":
        text = json.dumps(payload) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows([header, *rows])
        text = buf.getvalue()
    else:
        text = "".join(line + "\n" for line in lines)
    sys.stdout.write(text)


def _spaced(values) -> str:
    return " ".join(map(str, values))


def cmd_cosets(args) -> int:
    cosets = [sorted(int(x) for x in c) for c in all_cosets(args.n, args.q)]
    _render(
        args.format,
        {"n": args.n, "q": args.q, "cosets": cosets},
        ["leader", "size", "members"],
        [[c[0], len(c), _spaced(c)] for c in cosets],
        [f"{len(cosets)} cosets mod {args.n} (q={args.q})"]
        + [f"  leader {c[0]:3d} size {len(c):3d}: {{{', '.join(map(str, c))}}}" for c in cosets],
    )
    return EXIT_OK


def cmd_splittings(args) -> int:
    splits = duadic.find_splittings(args.n, b=args.multiplier)
    entries, lines = [], [f"{len(splits)} splittings of Z_{args.n}"]
    for s in splits:
        e = s.to_json()
        lines.append(f"  S1 leaders {e['s1_leaders']} | S2 leaders {e['s2_leaders']}"
                     f" | multipliers {e['multipliers']}")
        if args.expand:
            e["s1"] = sorted(int(x) for x in s.s1.members)
            e["s2"] = sorted(int(x) for x in s.s2.members)
            lines += [f"    S1 = {e['s1']}", f"    S2 = {e['s2']}"]
        entries.append(e)
    _render(
        args.format,
        {"n": args.n, "count": len(entries), "splittings": entries},
        ["s1_leaders", "s2_leaders", "multipliers"],
        [[_spaced(e["s1_leaders"]), _spaced(e["s2_leaders"]), _spaced(e["multipliers"])] for e in entries],
        lines,
    )
    return EXIT_OK


def _emit_params(args, params: quantum.QuantumParams, extras: list[quantum.QuantumParams]) -> None:
    payload = params.to_json()
    if extras:
        payload["secondary"] = [e.to_json() for e in extras]
    _render(
        args.format,
        payload,
        ["n", "k", "d_lo", "d_hi", "pure"],
        [[q.n, q.k, q.d.lo, "" if q.d.hi is None else q.d.hi, q.pure] for q in [params, *extras]],
        [f"{params.params_str()} pure={params.pure}"]
        + [f"  {line}" for line in params.trace]
        + [f"derived: {q.params_str()}" for q in extras],
    )


def cmd_quantum(args) -> int:
    if args.secondary_steps < 0:
        raise InputError(f"secondary steps must be >= 0, not {args.secondary_steps}")
    if args.from_annotation is not None:
        entries = [a for a in quantum.load_annotations(args.from_annotation) if a.n == args.n]
        if not entries:
            raise InputError(f"no annotation with n = {args.n}")
        params = quantum.zero_dim_from_classical_annotation(entries[0])
    elif args.qr:
        if args.n % 2 == 0 or not is_prime(args.n):
            raise InputError(f"--qr needs an odd prime length, got {args.n}")
        if args.n % 8 not in (5, 7):
            raise NotApplicableError(
                f"QR codes of length {args.n} are not Hermitian self-orthogonal "
                f"({args.n} mod 8 = {args.n % 8})",
                failed=["p = -1 or -3 mod 8"],
            )
        split = duadic.qr_splitting(args.n)
        pair = duadic.duadic_from_splitting(split)
        params, _ = quantum.extended_duadic_quantum(pair, budget=args.budget)
    elif args.duadic_index is not None:
        splits = duadic.find_splittings(args.n)
        if not 0 <= args.duadic_index < len(splits):
            raise InputError(f"duadic index {args.duadic_index} out of range (found {len(splits)})")
        split = splits[args.duadic_index]
        params, _ = quantum.extended_duadic_quantum(duadic.duadic_from_splitting(split), budget=args.budget)
    else:
        a = DefiningSet.from_leaders(args.n, _parse_leaders(args.leaders))
        params, _ = quantum.cyclic_zero_dim(a, budget=args.budget)
    extras = quantum.secondary_chain(params, args.secondary_steps) if args.secondary_steps else []
    _emit_params(args, params, extras)
    return EXIT_OK


def cmd_distance(args) -> int:
    a = DefiningSet.from_leaders(args.n, _parse_leaders(args.leaders))
    code = CyclicCode(a)
    if code.dim == 0:
        raise InputError("the zero code has no distance")
    # --via-binary only checks its precondition: min_distance_exact walks
    # and searches a binary basis over GF(2) with or without it
    if args.via_binary:
        o2, o4 = mult_order(2, args.n), mult_order(4, args.n)
        if o2 != o4:
            raise NotApplicableError(
                f"binary shadow needs ord_n(2) = ord_n(4); got ord_{args.n}(2) = {o2}, ord_{args.n}(4) = {o4}",
                failed=[f"ord_{args.n}(2) = {o2} != ord_{args.n}(4) = {o4}"],
            )
    parts = [dist.min_distance_exact(code, budget=args.budget)]
    for mult in args.fixed_subcode:
        parts.append(dist.fixed_subcode_lower_bound(code, mult, budget=args.budget))
    bound = dist.compose_bounds(parts)
    payload = bound.to_json()
    if args.expand:
        payload["defining_set"] = sorted(int(x) for x in a.members)
    _render(
        args.format,
        payload,
        ["lo", "hi", "lo_src", "hi_src", "work"],
        [[bound.lo, "" if bound.hi is None else bound.hi, bound.lo_src, bound.hi_src, bound.work]],
        [f"[{args.n},{code.dim}] code, d in [{bound.lo}, {'?' if bound.hi is None else bound.hi}] "
         f"(lo: {bound.lo_src}, hi: {bound.hi_src}, work {bound.work})"],
    )
    return EXIT_OK


_TABLE_NS = (5, 7, 13, 17, 23, 29)


def cmd_table(args) -> int:
    rows = []
    for n in _TABLE_NS:
        if n > args.max_n:
            break
        # canonical: smallest S1 leader tuple; every n in _TABLE_NS has one
        split = next(s for s in duadic.find_splittings(n) if s.has_multiplier(-2))
        squares = duadic.qr_splitting(n).s1.members if is_prime(n) else frozenset()
        kind = "QR" if split.s1.members == squares or split.s2.members == squares else "D"
        params, _ = quantum.extended_duadic_quantum(
            duadic.duadic_from_splitting(split), budget=args.budget
        )
        rows.append([n, _spaced(split.s1.leaders), kind, params.params_str(), "extended-duadic"])
    # the table is csv in every format
    _render("csv", None, ["n", "leaders", "type", "params", "source"], rows, [])
    return EXIT_OK


_DISPATCH = {
    "cosets": cmd_cosets,
    "splittings": cmd_splittings,
    "quantum": cmd_quantum,
    "distance": cmd_distance,
    "table": cmd_table,
}


def main(argv: list[str] | None = None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed standard output (`duadiq ... | head`): point it at
        # os.devnull, so that the interpreter's flush at exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return code


def _main(argv: list[str] | None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            # a flag after the subcommand that it does not take: report it
            # with that subcommand's usage, which lists the flags it takes
            if argv[0] == args.command:
                sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
                parser = sub.choices[args.command]
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        if "budget" in args:
            args.budget = default_budget() if args.budget is None else args.budget
            if args.budget < 0:
                raise InputError("--budget must be nonnegative")
        return _DISPATCH[args.command](args)
    except NotApplicableError as exc:
        sys.stderr.write(f"no applicable construction: {exc}\n")
        for item in exc.failed:
            sys.stderr.write(f"  failed precondition: {item}\n")
        return EXIT_NOT_APPLICABLE
    except (InputError, ValueError) as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return EXIT_INPUT
    except InvariantError as exc:
        sys.stderr.write(f"internal invariant failure: {exc}\n")
        return EXIT_INVARIANT
    except BudgetExceededError as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
