import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from duadiq import _kernels, cli, gf4, quantum
from duadiq import distance as dist
from duadiq.errors import BudgetExceededError


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cosets_text(capsys):
    code, out, _ = run(capsys, "cosets", "-n", "13", "-q", "4")
    assert code == 0
    assert "3 cosets" in out
    assert "leader   0" in out and "leader   1" in out and "leader   2" in out


def test_cosets_even_n_exit_2(capsys):
    code, _, err = run(capsys, "cosets", "-n", "4", "-q", "2")
    assert code == 2
    assert "invalid input" in err


def test_cosets_n3_singletons(capsys):
    code, out, _ = run(capsys, "cosets", "-n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cosets"] == [[0], [1], [2]]


def test_splittings_n23(capsys):
    code, out, _ = run(capsys, "splittings", "-n", "23", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1
    entry = payload["splittings"][0]
    assert entry["s1_leaders"] == [1]
    assert (-2) % 23 in entry["multipliers"]


def test_splittings_empty_still_exit_0(capsys):
    code, out, _ = run(capsys, "splittings", "-n", "11", "--multiplier", "-2", "--format", "json")
    assert code == 0
    assert json.loads(out)["count"] == 0


def test_splittings_too_many_masks_exit_2(capsys):
    # mu_2 pairs the 68 nonzero cosets mod 255 into 34 cycles: 2^34 masks
    code, out, err = run(capsys, "splittings", "-n", "255")
    assert code == 2
    assert out == ""
    assert "invalid input" in err and "2^34" in err


def test_splittings_n17(capsys):
    code, out, _ = run(capsys, "splittings", "-n", "17", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert [1, 3] in [e["s1_leaders"] for e in payload["splittings"]]


def test_quantum_qr_23(capsys):
    code, out, _ = run(capsys, "quantum", "-n", "23", "--qr", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["n"], payload["k"], payload["d_lo"], payload["d_hi"]) == (24, 0, 8, 8)


def test_quantum_qr_23_walks_once(capsys, monkeypatch):
    # the duadic pass alone certifies the extended code; a walk of the
    # odd-like [23, 12] code would add 4^12 words
    words = []
    walk = _kernels.gray_weight_hists

    def counting(*args, **kwargs):
        hist = walk(*args, **kwargs)
        words.append(int(hist.sum()))
        return hist

    monkeypatch.setattr(dist, "_CACHE", {})
    monkeypatch.setattr(_kernels, "gray_weight_hists", counting)
    code, _, _ = run(capsys, "quantum", "-n", "23", "--qr", "--format", "json")
    assert code == 0
    # one symmetric pass per mu_4 orbit ({1, 2, 3, ...} and {5, 7, 10, ...})
    # of the [23, 11] even-like code's words zero at 0 and 1, and at 0 and
    # 5: two [23, 9] codes, each one peeled level, then the 4^8 block
    assert sum(words) == 2 * ((4**9 - 4**8) // 3 + 4**8) == 262_144


def test_quantum_qr_29_walks_one_span(capsys, monkeypatch):
    # mu_4 has two orbits on Z_29^*, but 2 is a non-residue mod 29 and
    # conj o mu_2 fixes the [29, 14] even-like code, so its fixing
    # multipliers join them: one [29, 12] code of words zero at 0 and 1,
    # four peeled levels, then the 4^8 block
    words = []
    walk = _kernels.gray_weight_hists

    def counting(*args, **kwargs):
        hist = walk(*args, **kwargs)
        words.append(int(hist.sum()))
        return hist

    monkeypatch.setattr(dist, "_CACHE", {})
    monkeypatch.setattr(_kernels, "gray_weight_hists", counting)
    code, out, _ = run(capsys, "quantum", "-n", "29", "--qr", "--format", "json")
    assert code == 0 and json.loads(out)["d_lo"] == 12
    assert len(words) == 5
    assert sum(words) == (4**12 - 4**8) // 3 + 4**8 == 5_636_096


@pytest.mark.parametrize("n,d_lo,d_hi", [(29, 10, 12), (47, 12, 12)])
def test_quantum_qr_searches_once(capsys, monkeypatch, n, d_lo, d_hi):
    # below the exact pass one search, on an information set of the extended
    # code and its complement, bounds it; the odd-like code is not searched.
    # Cyclic averaging over the even-like code and its dual lifts lo by one
    # before the even lift (levels 3 and 3: 8 -> 9 -> 10; 4 and 4: 10 -> 11 -> 12).
    # The other calls are the one-set seed searches of fixed subcodes: mu_-1
    # fixes the n = 29 QR code, whose fixed subcode is padded by the unit
    calls = []
    search = dist._info_set_bounds

    def counting(code, *args, **kwargs):
        r = code.original if isinstance(code, quantum.SelfDualCode) else code
        calls.append((code, dist._is_cyclic(r)))
        return search(code, *args, **kwargs)

    monkeypatch.setattr(dist, "_CACHE", {})
    monkeypatch.setattr(dist, "_info_set_bounds", counting)
    code, out, _ = run(capsys, "quantum", "-n", str(n), "--qr", "--budget", "65536", "--format", "json")
    (ext, cyclic), *seeds = calls
    assert code == 0 and isinstance(ext, quantum.SelfDualCode) and cyclic
    assert all(not c and s.shape[1] == ext.gen.shape[1] and s.shape[0] < ext.gen.shape[0] for s, c in seeds)
    assert len(seeds) == (n == 29)
    payload = json.loads(out)
    assert (payload["d_lo"], payload["d_hi"]) == (d_lo, d_hi)


@pytest.mark.parametrize("corrupt", ["weight", "membership"])
@pytest.mark.parametrize("argv", [("quantum", "-n", "47", "--qr", "--budget", "65536"),
                                  ("distance", "-n", "23", "--leaders", "1", "--budget", "1000")])
def test_wrong_witness_word_exit_4(capsys, monkeypatch, corrupt, argv):
    # every information-set hi is checked before it is reported: by the Gram
    # test on the self-dual extension, by re-encoding on the cyclic code.
    # Dropping a nonzero symbol changes the weight; multiplying one by omega
    # keeps it but leaves the code, whose distance is above 1
    walk = _kernels.InfoSetLevels.least_weight

    def wrong(self, *args):
        found = walk(self, *args)
        if found is None:
            return None
        weight, word = found
        word = word.copy()
        at = int(np.flatnonzero(word)[-1])
        word[at] = 0 if corrupt == "weight" else gf4.MUL_TABLE[2][word[at]]
        return weight, word

    monkeypatch.setattr(dist, "_CACHE", {})
    monkeypatch.setattr(_kernels.InfoSetLevels, "least_weight", wrong)
    code, out, err = run(capsys, *argv)
    assert code == 4 and out == ""
    assert "witness" in err


@pytest.mark.parametrize("corrupt", ["sum", "identity"])
def test_quantum_qr_macwilliams_violation_exit_4(capsys, monkeypatch, corrupt):
    # one wrong histogram entry: an extra weight-8 word breaks the count
    # 2^24; moving a word from weight 10 to 8 keeps it and breaks the identity
    passes = dist.duadic_distances

    def corrupted(*args, **kwargs):
        dd = passes(*args, **kwargs)
        hist = list(dd.even_hist)
        hist[8] += 1
        if corrupt == "identity":
            hist[10] -= 1
        return dataclasses.replace(dd, even_hist=tuple(hist))

    monkeypatch.setattr(dist, "duadic_distances", corrupted)
    code, out, err = run(capsys, "quantum", "-n", "23", "--qr")
    assert code == 4
    assert out == ""
    assert ("2^24" if corrupt == "sum" else "MacWilliams") in err


@pytest.mark.parametrize("corrupt", ["sum", "identity"])
def test_quantum_coset_pass_macwilliams_violation_exit_4(capsys, monkeypatch, corrupt):
    # the e = 1 pass of the [[14,0,6]] code from n = 13 walks the [13, 6]
    # ingredient: an extra weight-6 word breaks its count 2^12; moving a
    # word from weight 8 to 6 keeps it and breaks the identity
    walk = dist.weight_histograms

    def corrupted(*args, **kwargs):
        hist, work = walk(*args, **kwargs)
        hist = hist.copy()
        hist[6] += 1
        if corrupt == "identity":
            hist[8] -= 1
        return hist, work

    monkeypatch.setattr(dist, "weight_histograms", corrupted)
    code, out, err = run(capsys, "quantum", "-n", "13", "--leaders", "1")
    assert code == 4
    assert out == ""
    assert ("2^12" if corrupt == "sum" else "MacWilliams") in err


@pytest.mark.parametrize("corrupt", ["extra", "moved"])
@pytest.mark.parametrize("argv,field,count", [
    pytest.param(("quantum", "-n", "23", "--qr"), 4, "2^22", id="argv0-weight_histograms-2^22"),
    pytest.param(("quantum", "-n", "23", "--leaders", "1"), 2, "2^11", id="argv1-weight_histograms_binary-2^11"),
])
def test_walked_histogram_miscount_exit_4(capsys, monkeypatch, argv, field, count, corrupt):
    # the duadic pass walks the [23, 11] even-like code over GF(4), the e = 1
    # pass of the cyclic route its binary span: one extra word of the least
    # weight breaks the count; one word moved up by 2 keeps it and breaks
    # the divisibility of the MacWilliams transform.  Only the walks over
    # GF(field) are corrupted
    plain = dist.weight_histograms

    def corrupted(g, budget=None, q=4):
        hist, work = plain(g, budget, q)
        if q != field:
            return hist, work
        hist = hist.copy()
        w = int(np.flatnonzero(hist[1:])[0]) + 1
        if corrupt == "moved":
            hist[w] -= 1
            w += 2
        hist[w] += 1
        return hist, work

    monkeypatch.setattr(dist, "_CACHE", {})
    monkeypatch.setattr(dist, "weight_histograms", corrupted)
    code, out, err = run(capsys, *argv)
    assert code == 4 and out == ""
    assert (count if corrupt == "extra" else "MacWilliams") in err


@pytest.mark.parametrize("corrupt", ["extra", "moved"])
@pytest.mark.parametrize("argv,kernel", [
    (("quantum", "-n", "23", "--qr"), "gray_weight_hists"),
    (("quantum", "-n", "23", "--leaders", "1"), "gray_weight_hists_binary"),
    (("distance", "-n", "23", "--leaders", "1"), "gray_weight_hists_binary"),
    (("distance", "-n", "23", "--leaders", "1", "--via-binary"), "gray_weight_hists_binary"),
    (("quantum", "-n", "29", "--qr"), "gray_weight_hists"),
    (("quantum", "-n", "13", "--qr"), "gray_weight_hists"),
])
def test_shortened_walk_miscount_exit_4(capsys, monkeypatch, argv, kernel, corrupt):
    # each command walks the shortened codes of a cyclic [n, k] code: over
    # GF(4) its two-point codes, two for n = 23 and one for n = 29 and 13,
    # whose fixing multipliers act transitively on the nonzero coordinates;
    # over GF(2) the one shortened code.  One extra word of the least
    # weight w in the kernel's first histogram, or one moved up by 2,
    # breaks sum_O |O| D^O_w = (n - 1 - w) B_w, or else n B_w = (n - w) A_w.
    # For n = 13 the one orbit has n - 1 = 12 elements, and 12 D_w stays
    # divisible by 12 - w at the weights touched, so the second identity
    # catches the word
    two_point = kernel == "gray_weight_hists" and argv[2] != "13"
    plain = getattr(_kernels, kernel)
    calls = []

    def corrupted(*args):
        hist = plain(*args)
        calls.append(args)
        if len(calls) == 1:
            hist = hist.copy()
            w = int(np.flatnonzero(hist[1:])[0]) + 1
            if corrupt == "moved":
                hist[w] -= 1
                w += 2
            hist[w] += 1
        return hist

    monkeypatch.setattr(dist, "_CACHE", {})
    monkeypatch.setattr(_kernels, kernel, corrupted)
    code, out, err = run(capsys, *argv)
    assert code == 4 and out == ""
    assert f"shortened walk of a cyclic [{argv[2]}," in err and "miscounted" in err
    assert ("two-point shortened walk" in err) == two_point


def test_unit_routes_print_one_note(capsys):
    # the duadic pass (--qr) and the e = 1 pass of the cyclic route
    # (--leaders) of the [[14,0,6]] code print the same account of d
    notes = []
    for argv in (("--qr",), ("--leaders", "1")):
        code, out, _ = run(capsys, "quantum", "-n", "13", *argv)
        assert code == 0 and out.startswith("[[14,0,6]]")
        notes.append([line for line in out.splitlines() if "[exact]" in line])
    assert notes[0] == notes[1] == ["  d = min(d(even) = 6, d_o + 1 = 6) = 6 [exact]"]


def test_quantum_qr_29_extremal(capsys):
    # [[30, 0, 12]] meets the self-dual bound 2 floor(30/6) + 2 = 12
    code, out, err = run(capsys, "quantum", "-n", "29", "--qr", "--format", "json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert (payload["n"], payload["k"], payload["d_lo"], payload["d_hi"]) == (30, 0, 12, 12)


def test_annotation_above_extremal_bound_exit_4(capsys, tmp_path):
    # a dual-containing [23, 12, 11] code would give [[24, 0, >= 12]], past d <= 10
    path = tmp_path / "ann.json"
    path.write_text(json.dumps([{"n": 23, "k": 12, "d": 11, "source": "wrong"}]))
    code, out, err = run(capsys, "quantum", "-n", "23", "--from-annotation", str(path))
    assert code == 4 and out == ""
    assert err == "internal invariant failure: [[24,0]] with d >= 12 exceeds the self-dual bound d <= 10\n"


def test_budget_exceeded_exit_4(capsys, monkeypatch):
    def refuse(code, budget=None):
        raise BudgetExceededError("4^11 = 4194304 exceeds budget 0")

    monkeypatch.setattr(dist, "min_distance_exact", refuse)
    code, out, err = run(capsys, "distance", "-n", "23", "--leaders", "1")
    assert code == 4 and out == ""
    assert err == "budget exceeded: 4^11 = 4194304 exceeds budget 0\n"


def test_quantum_qr_11_exit_3(capsys):
    code, _, err = run(capsys, "quantum", "-n", "11", "--qr")
    assert code == 3
    assert "no applicable construction" in err
    assert "failed precondition" in err


@pytest.mark.parametrize("n", [1, 2, 9])
def test_quantum_qr_needs_an_odd_prime_exit_2(capsys, monkeypatch, n):
    # 2 is prime but no QR code has length 2: like 1 and 9, it is refused as
    # input before any construction
    def construct(*args, **kwargs):
        raise AssertionError("--qr built a code for a length it refuses")
    monkeypatch.setattr(cli.duadic, "qr_splitting", construct)
    monkeypatch.setattr(quantum, "extended_duadic_quantum", construct)
    code, out, err = run(capsys, "quantum", "-n", str(n), "--qr")
    assert (code, out) == (2, "")
    assert err == f"invalid input: --qr needs an odd prime length, got {n}\n"


def test_quantum_leaders_141(capsys):
    code, out, _ = run(capsys, "quantum", "-n", "141", "--leaders", "2,3,10",
                       "--budget", "50000", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 144 and payload["k"] == 0
    assert payload["d_lo"] >= 2  # budget-honest bound, far below the record value


def test_quantum_leaders_rejects_bad_set(capsys):
    code, out, err = run(capsys, "quantum", "-n", "5", "--leaders", "0")
    assert (code, out) == (3, "")
    assert err == ("no applicable construction: no construction applies to this defining set\n"
                   "  failed precondition: A cap -2A nonempty (witness 0 -> 0)\n")


def test_quantum_duadic_index(capsys):
    code, out, _ = run(capsys, "quantum", "-n", "17", "--duadic-index", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["n"] == 18


def test_quantum_duadic_index_without_mu2_exit_3(capsys, monkeypatch):
    # the one splitting of Z_3 is {1} | {2}, and -2 = 1 mod 3 does not swap
    # it: the construction refuses it before it extends anything
    def refuse(code):
        raise AssertionError("extended a splitting without mu_-2")

    monkeypatch.setattr(cli.quantum, "_extend", refuse)
    code, out, err = run(capsys, "quantum", "-n", "3", "--duadic-index", "0")
    assert (code, out) == (3, "")
    assert "  failed precondition: mu_-2 witness" in err.splitlines()


def test_quantum_annotation_route(capsys, tmp_path):
    path = tmp_path / "ann.json"
    path.write_text(json.dumps([{"n": 93, "k": 48, "d": 21, "source": "tables"}]))
    code, out, _ = run(capsys, "quantum", "-n", "93", "--from-annotation", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["n"], payload["k"], payload["d_lo"]) == (96, 0, 22)


# the content of each file that cannot be read as annotations; None: none written
_BAD_ANNOTATIONS = {"missing.json": None, ".": None, "truncated.json": b"[{", "latin1.json": b"\xff"}


@pytest.mark.parametrize("name", list(_BAD_ANNOTATIONS))
def test_unreadable_annotation_file_exit_2(capsys, tmp_path, name):
    # a missing file, a directory, content that is not JSON and content that
    # is not UTF-8: the error names the path, no traceback
    path = str(tmp_path / name)
    content = _BAD_ANNOTATIONS[name]
    if content is not None:
        (tmp_path / name).write_bytes(content)
    code, out, err = run(capsys, "quantum", "-n", "23", "--from-annotation", path)
    assert (code, out) == (2, "")
    what = f"cannot read annotation file {path!r}: " if content is None else \
        f"annotation file {path!r} is not UTF-8 JSON: "
    assert err.startswith("invalid input: " + what)
    assert err.count("\n") == 1


def test_quantum_secondary_steps(capsys, tmp_path):
    path = tmp_path / "ann.json"
    path.write_text(json.dumps([{"n": 120, "k": 120, "d": 32, "source": "t"}]))
    # use the qr route instead for a computed chain
    code, out, _ = run(capsys, "quantum", "-n", "13", "--qr", "--secondary-steps", "2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    seconds = payload["secondary"]
    assert [(s["n"], s["k"], s["d_lo"]) for s in seconds] == [(13, 0, 5), (12, 0, 4)]


def test_quantum_negative_secondary_steps_exit_2(capsys):
    code, out, err = run(capsys, "quantum", "-n", "7", "--qr", "--secondary-steps", "-2")
    assert code == 2 and out == ""
    assert err.startswith("invalid input:") and "-2" in err


def test_negative_secondary_steps_refused_before_construction(capsys, monkeypatch):
    # the flag is checked before the route is chosen, so no code is built or walked
    def refuse(*args, **kwargs):
        raise AssertionError("the construction ran")

    monkeypatch.setattr(cli.quantum, "extended_duadic_quantum", refuse)
    code, out, err = run(capsys, "quantum", "-n", "29", "--qr", "--secondary-steps", "-1")
    assert (code, out) == (2, "")
    assert err == "invalid input: secondary steps must be >= 0, not -1\n"


def test_distance_exact(capsys):
    code, out, _ = run(capsys, "distance", "-n", "5", "--leaders", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lo"] == 3 and payload["hi"] == 3
    assert payload["lo_src"] == "exact-enumeration"


def test_distance_via_binary(capsys):
    # the [23, 12] code has a binary basis, so with or without --via-binary
    # it walks its 2^12 binary words; the walk is still chosen by 4^12 against
    # the budget, and at 1000 the search over GF(2) certifies d
    for flags in ((), ("--via-binary",)):
        code, out, _ = run(capsys, "distance", "-n", "23", "--leaders", "1", *flags, "--format", "json")
        assert code == 0 and json.loads(out) == {
            "lo": 7, "hi": 7, "lo_src": "exact-enumeration", "hi_src": "exact-enumeration", "work": 4096}
    code, out, _ = run(capsys, "distance", "-n", "23", "--leaders", "1", "--budget", "1000", "--format", "json")
    assert code == 0 and json.loads(out) == {
        "lo": 7, "hi": 7, "lo_src": "information-set", "hi_src": "information-set", "work": 298}


def test_distance_via_binary_refused(capsys):
    code, _, err = run(capsys, "distance", "-n", "5", "--leaders", "1", "--via-binary")
    assert code == 3
    assert "ord_5(2) = 4" in err and "ord_5(4) = 2" in err


def test_distance_n1(capsys):
    # ord_1(2) = ord_1(4) = 1: the [1, 1] code passes --via-binary, and mu_1
    # has order 1, which no fixed-subcode bound takes
    code, out, err = run(capsys, "distance", "-n", "1", "--leaders=", "--via-binary")
    assert (code, err) == (0, "")
    assert out == "[1,1] code, d in [1, 1] (lo: exact-enumeration, hi: exact-enumeration, work 0)\n"
    code, out, err = run(capsys, "distance", "-n", "1", "--leaders=", "--fixed-subcode", "1")
    assert (code, out) == (2, "")
    assert err == "invalid input: multiplier order 1 is neither 2 nor odd > 1\n"


def test_distance_fixed_subcode_flag(capsys):
    code, out, _ = run(capsys, "distance", "-n", "13", "--leaders", "1",
                       "--fixed-subcode", "-1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lo"] == payload["hi"] == 5


def test_distance_fixed_subcode_names_the_multiplier_given(capsys):
    # 5 = 0 mod 5 has no inverse; the message names the multiplier as given
    code, out, err = run(capsys, "distance", "-n", "5", "--leaders", "1", "--fixed-subcode", "5")
    assert code == 2 and out == ""
    assert "gcd(5, 5) != 1" in err


def test_distance_budget_zero_interval(capsys):
    code, out, _ = run(capsys, "distance", "-n", "23", "--leaders", "1",
                       "--budget", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    # no level walked: a nonzero word of the [23, 12] cyclic code meets every
    # window of 12 positions, so cyclic averaging gives d >= ceil(23/12) = 2
    assert payload["lo"] == 2 and payload["hi"] is None
    assert payload["lo_src"] == "budget-exhausted"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_budget_zero_hi_is_budget_exhausted(capsys, fmt):
    # no level fits the budget, so no search found the missing hi
    code, out, _ = run(capsys, "distance", "-n", "23", "--leaders", "1", "--budget", "0", "--format", fmt)
    assert code == 0
    if fmt == "json":
        payload = json.loads(out)
        assert payload["hi"] is None and payload["hi_src"] == "budget-exhausted"
    else:
        assert out == "[23,12] code, d in [2, ?] (lo: budget-exhausted, hi: budget-exhausted, work 0)\n"


def test_python_m_duadiq_runs_the_cli():
    # a checkout run as `PYTHONPATH=src python -m duadiq`, as CI runs the entry point
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "duadiq", "quantum", "-n", "13", "--qr", "--format", "json"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    p = json.loads(proc.stdout)
    assert (p["n"], p["k"], p["d_lo"], p["d_hi"]) == (14, 0, 6, 6)


def test_one_coset_cache_entry_per_length():
    # every caller asks all_cosets for the 4-cyclotomic cosets the same way,
    # so the table computes each length's cosets once: 6 lengths up to 29
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = ("import contextlib, io\n"
              "from duadiq import cli, cyclic\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    assert cli.main(['table', '--max-n', '29']) == 0\n"
              "print(cyclic.all_cosets.cache_info().misses)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == 6


def test_closed_stdout_exits_quietly():
    # the reader of the pipe is gone before the command writes, as with
    # `duadiq quantum -n 35 --leaders 3,5 | head -2` when head exits first
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "duadiq", "quantum", "-n", "35", "--leaders", "3,5"],
                              stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert proc.stderr == ""


def test_table_small(capsys):
    import csv
    import io

    code, out, _ = run(capsys, "table", "--max-n", "23")
    assert code == 0
    reader = csv.reader(io.StringIO(out))
    header = next(reader)
    assert header == ["n", "leaders", "type", "params", "source"]
    rows = [r for r in reader if r]
    assert [r[0] for r in rows] == ["5", "7", "13", "17", "23"]
    assert rows[-1][3] == "[[24,0,8]]"
    assert [r[2] for r in rows] == ["QR", "QR", "QR", "D", "QR"]


def test_table_max_n_3_empty(capsys):
    code, out, _ = run(capsys, "table", "--max-n", "3")
    assert code == 0
    assert out.strip() == "n,leaders,type,params,source"


def test_determinism_byte_identical(capsys):
    outs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "quantum", "-n", "17", "--duadic-index", "1", "--format", "json")
        outs.add(out)
    assert len(outs) == 1


def test_unknown_flag_rejected(capsys):
    code, _, _ = run(capsys, "cosets", "-n", "5", "--nope")
    assert code == 2


def test_expand_flag(capsys):
    code, out, _ = run(capsys, "splittings", "-n", "7", "--expand", "--format", "json")
    assert code == 0
    entry = json.loads(out)["splittings"][0]
    assert entry["s1"] == [1, 2, 4] and entry["s2"] == [3, 5, 6]


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("DUADIQ_BUDGET", "0")
    code, out, _ = run(capsys, "distance", "-n", "23", "--leaders", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lo"] == 2 and payload["hi"] is None
    monkeypatch.setenv("DUADIQ_BUDGET", "-3")
    code, _, err = run(capsys, "distance", "-n", "23", "--leaders", "1")
    assert code == 2


# the options each subcommand takes, and no other: each reads every one
OPTIONS = {
    "cosets": {"-n", "-q", "--format"},
    "splittings": {"-n", "--multiplier", "--format", "--expand"},
    "quantum": {"-n", "--leaders", "--qr", "--duadic-index", "--from-annotation",
                "--secondary-steps", "--format", "--budget"},
    "distance": {"-n", "--leaders", "--via-binary", "--fixed-subcode", "--format", "--budget", "--expand"},
    "table": {"--max-n", "--format", "--budget"},
}


def test_subcommand_options():
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: {opt for action in sub._actions for opt in action.option_strings} - {"-h", "--help"}
           for name, sub in subparsers.choices.items()}
    assert got == OPTIONS


@pytest.mark.parametrize("argv", [
    "cosets -n 13 --budget 5",
    "cosets -n 13 --expand",
    "splittings -n 23 --budget 5",
    "quantum -n 13 --qr --expand",
    "quantum -n 23 --from-annotation --annotations ann.json",
    "distance -n 13 --leaders 1 --annotations ann.json",
    "table --max-n 29 --slow",
    "table --max-n 13 --expand",
])
def test_removed_flags_exit_2(capsys, argv):
    # the subcommand's own parser reports the flag, so its usage shows the
    # flags it does take
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: duadiq {argv.split()[0]} ") and "error:" in err


_ANN93 = '[{"n": 93, "k": 48, "d": 21, "source": "external code table"}]'


# argv ({ann} names the annotation file), the file's content, the first
# stderr line after "invalid input: "
@pytest.mark.parametrize("argv,annotations,message", [
    ("quantum -n 7 --leaders 1,x", None, "bad leader list '1,x': invalid literal for int() with base 10: 'x'"),
    ("quantum -n 13 --duadic-index 1", None, "duadic index 1 out of range (found 1)"),
    ("quantum -n 7 --from-annotation {ann}", _ANN93, "no annotation with n = 7"),
    ("quantum -n 93 --from-annotation {ann}", _ANN93.replace('"d": 21, ', ""),
     "bad annotation entry {'n': 93, 'k': 48, 'source': 'external code table'}: 'd'"),
    ("distance -n 5 --leaders 0,1,2", None, "the zero code has no distance"),
    ("quantum -n 9 --leaders 1 --budget -1", None, "--budget must be nonnegative"),
])
def test_invalid_input_exit_2(capsys, tmp_path, argv, annotations, message):
    path = tmp_path / "ann.json"
    if annotations is not None:
        path.write_text(annotations)
    code, out, err = run(capsys, *argv.format(ann=path).split())
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == f"invalid input: {message}"


def test_flag_before_the_subcommand_exit_2(capsys):
    # a flag before the subcommand belongs to no subcommand: the top-level
    # parser reports it
    code, out, err = run(capsys, "--expand", "cosets", "-n", "13")
    assert (code, out) == (2, "")
    assert err.startswith("usage: duadiq [-h] ") and "unrecognized arguments: --expand" in err


def test_table_reads_the_budget_once(capsys, monkeypatch):
    calls = []
    default_budget = cli.default_budget
    monkeypatch.setattr(cli, "default_budget", lambda: calls.append(1) or default_budget())
    code, out, _ = run(capsys, "table", "--max-n", "23")
    assert code == 0 and out.count("\n") == 6
    assert len(calls) == 1


def _lines(*lines, end="\n"):
    return "".join(line + end for line in lines)


_QR13_TRACE = ('"odd-like duadic n=13 leaders=[1] with mu_-2", '
               '"even-like subcode extended by one unit coordinate (e=1)", '
               '"d = min(d(even) = 6, d_o + 1 = 6) = 6 [exact]"')
_QR13_JSON = ('{"n": 14, "k": 0, "d_lo": 6, "d_hi": 6, "pure": "yes", "trace": [' + _QR13_TRACE + '], '
              '"secondary": [{"n": 13, "k": 0, "d_lo": 5, "d_hi": 5, "pure": "unknown", "trace": ['
              + _QR13_TRACE + ', "length-1 reduction from [[14,0,6]]"]}]}\n')
_SPLIT23 = ('{"n": 23, "s1_leaders": [1], "s2_leaders": [5], '
            '"multipliers": [5, 7, 10, 11, 14, 15, 17, 19, 20, 21, 22]')
_TABLE13 = _lines("n,leaders,type,params,source", '5,1,QR,"[[6,0,4]]",extended-duadic',
                  '7,1,QR,"[[8,0,4]]",extended-duadic', '13,1,QR,"[[14,0,6]]",extended-duadic', end="\r\n")

# the exact stdout of each subcommand in each format, or None for a command
# the parser refuses; csv rows end in \r\n, and table prints csv whatever
# the format
GOLDEN = {
    ("cosets -n 13", "text"): _lines("3 cosets mod 13 (q=4)", "  leader   0 size   1: {0}",
                                     "  leader   1 size   6: {1, 3, 4, 9, 10, 12}",
                                     "  leader   2 size   6: {2, 5, 6, 7, 8, 11}"),
    ("cosets -n 13", "csv"): _lines("leader,size,members", "0,1,0", "1,6,1 3 4 9 10 12",
                                    "2,6,2 5 6 7 8 11", end="\r\n"),
    ("cosets -n 13", "json"): '{"n": 13, "q": 4, "cosets": [[0], [1, 3, 4, 9, 10, 12], [2, 5, 6, 7, 8, 11]]}\n',
    ("splittings -n 23", "text"): _lines(
        "1 splittings of Z_23",
        "  S1 leaders [1] | S2 leaders [5] | multipliers [5, 7, 10, 11, 14, 15, 17, 19, 20, 21, 22]"),
    ("splittings -n 23", "csv"): _lines("s1_leaders,s2_leaders,multipliers",
                                        "1,5,5 7 10 11 14 15 17 19 20 21 22", end="\r\n"),
    ("splittings -n 23", "json"): '{"n": 23, "count": 1, "splittings": [' + _SPLIT23 + "}]}\n",
    ("splittings -n 23 --expand", "text"): _lines(
        "1 splittings of Z_23",
        "  S1 leaders [1] | S2 leaders [5] | multipliers [5, 7, 10, 11, 14, 15, 17, 19, 20, 21, 22]",
        "    S1 = [1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18]",
        "    S2 = [5, 7, 10, 11, 14, 15, 17, 19, 20, 21, 22]"),
    ("splittings -n 23 --expand", "csv"): _lines("s1_leaders,s2_leaders,multipliers",
                                                 "1,5,5 7 10 11 14 15 17 19 20 21 22", end="\r\n"),
    ("splittings -n 23 --expand", "json"): (
        '{"n": 23, "count": 1, "splittings": [' + _SPLIT23 + ', "s1": [1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18], '
        '"s2": [5, 7, 10, 11, 14, 15, 17, 19, 20, 21, 22]}]}\n'),
    ("quantum -n 13 --qr --secondary-steps 1", "text"): _lines(
        "[[14,0,6]] pure=yes", "  odd-like duadic n=13 leaders=[1] with mu_-2",
        "  even-like subcode extended by one unit coordinate (e=1)",
        "  d = min(d(even) = 6, d_o + 1 = 6) = 6 [exact]", "derived: [[13,0,5]]"),
    ("quantum -n 13 --qr --secondary-steps 1", "csv"): _lines(
        "n,k,d_lo,d_hi,pure", "14,0,6,6,yes", "13,0,5,5,unknown", end="\r\n"),
    ("quantum -n 13 --qr --secondary-steps 1", "json"): _QR13_JSON,
    # quantum takes no --expand: exit 2, nothing on stdout
    ("quantum -n 13 --qr --secondary-steps 1 --expand", "json"): None,
    ("distance -n 13 --leaders 1 --fixed-subcode -1", "text"): _lines(
        "[13,7] code, d in [5, 5] (lo: exact-enumeration, hi: exact-enumeration, work 16640)"),
    ("distance -n 13 --leaders 1 --fixed-subcode -1", "csv"): _lines(
        "lo,hi,lo_src,hi_src,work", "5,5,exact-enumeration,exact-enumeration,16640", end="\r\n"),
    ("distance -n 13 --leaders 1 --fixed-subcode -1", "json"): (
        '{"lo": 5, "hi": 5, "lo_src": "exact-enumeration", "hi_src": "exact-enumeration", "work": 16640}\n'),
    # --expand adds the defining set to the json payload alone
    ("distance -n 13 --leaders 1 --expand", "text"): _lines(
        "[13,7] code, d in [5, 5] (lo: exact-enumeration, hi: exact-enumeration, work 16384)"),
    ("distance -n 13 --leaders 1 --expand", "csv"): _lines(
        "lo,hi,lo_src,hi_src,work", "5,5,exact-enumeration,exact-enumeration,16384", end="\r\n"),
    ("distance -n 13 --leaders 1 --expand", "json"): (
        '{"lo": 5, "hi": 5, "lo_src": "exact-enumeration", "hi_src": "exact-enumeration", "work": 16384, '
        '"defining_set": [1, 3, 4, 9, 10, 12]}\n'),
    ("table --max-n 13", "text"): _TABLE13,
    ("table --max-n 13", "csv"): _TABLE13,
    ("table --max-n 13", "json"): _TABLE13,
    ("table --max-n 29", "csv"): _TABLE13 + _lines('17,1 3,D,"[[18,0,8]]",extended-duadic',
                                                   '23,1,QR,"[[24,0,8]]",extended-duadic',
                                                   '29,1,QR,"[[30,0,12]]",extended-duadic', end="\r\n"),
}


@pytest.mark.parametrize("command,fmt", list(GOLDEN))
def test_golden_stdout(capsys, command, fmt):
    code, out, err = run(capsys, *command.split(), "--format", fmt)
    if GOLDEN[command, fmt] is None:
        assert (code, out) == (2, "") and "unrecognized arguments" in err
        return
    assert (code, err) == (0, "")
    assert out == GOLDEN[command, fmt]


def test_parser_built_once(capsys):
    # one parser serves every call in a process: a refused command leaves
    # nothing behind for the next, and an appended flag starts empty each time
    assert cli.build_parser() is cli.build_parser()
    code, out, err = run(capsys, "cosets", "-n", "13", "--budget", "5")
    assert (code, out) == (2, "") and "unrecognized arguments" in err
    for command in ("quantum -n 13 --qr --secondary-steps 1", "distance -n 13 --leaders 1 --fixed-subcode -1",
                    "distance -n 13 --leaders 1 --fixed-subcode -1"):
        assert run(capsys, *command.split(), "--format", "json") == (0, GOLDEN[command, "json"], "")
