"""Checks of every output of a run, after its timed rounds.

The run compares digests of every round's outputs and passes the last
round's outputs here.  For each (text, tau) the explicit list must be a
tau-synchronizing set (checker.TextChecker) and every other form must
agree with it: the bitmask, the decoded sparse
encoding, the support's encoding and size, every select/rank answer
(against bisect on the list), and the CLI's list file, its bitmask
container read as raw mask bits, its decoded sparse container, the
output of `decode`, `query` and `verify`.  With `Workload.verify` the
sets also go through `tausync.oracle.verify_sync`.
"""

from __future__ import annotations

from bisect import bisect_left

import checker
import workloads


def check_workload(mods, wl: workloads.Workload, outputs) -> list[str]:
    """Problems found in the (library, CLI) outputs of one round."""
    problems: list[str] = []
    lib, cli = outputs
    oracle = mods["oracle"]
    for text in wl.texts:
        tc = checker.TextChecker(text.symbols)
        index = oracle.TextIndex(text.symbols) if wl.verify else None

        def check_set(what, tau, members):
            try:
                tc.check(tau, members)
            except checker.SyncSetError as exc:
                problems.append(f"{what}: {exc}")
            if index is not None:
                report = oracle.verify_sync(text.symbols, tau, members, index)
                if not report.ok:
                    problems.append(f"{what}: verify_sync {report.condition}: "
                                    f"{report.detail}")

        explicit = {}
        for tau, res in lib.get(text.name, {}).items():
            what = f"{wl.name}/{text.name} tau={tau}"
            members = res.get("explicit")
            if members is None:
                continue
            explicit[tau] = members
            check_set(f"{what} explicit", tau, members)
            problems.extend(f"{what} {p}" for p in
                            check_library(text.n, members, res))
        if text.name in cli:
            what = f"{wl.name}/{text.name} cli tau={text.cli_tau}"
            problems.extend(f"{what} {p}" for p in
                            check_cli(text, cli[text.name], explicit, check_set,
                                      what))
    return problems


def _sparse_members(enc, n):
    value, nbits, decoded_len = enc[:3]
    if decoded_len != n:
        raise ValueError(f"decoded length {decoded_len} != n = {n}")
    return checker.decode_mask_tokens(checker.int_bits(value, nbits), n)


def check_library(n: int, members: list[int], res: dict) -> list[str]:
    out = []
    if res.get("bitmask") is not None:
        value, length = res["bitmask"]
        if length != n or value != checker.members_to_int(members, n):
            out.append("bitmask differs from the explicit list")
    for form in ("sparse", "support"):
        if res.get(form) is None:
            continue
        try:
            if _sparse_members(res[form], n) != members:
                out.append(f"decoded {form} encoding differs from the list")
        except ValueError as exc:
            out.append(f"{form} encoding does not decode: {exc}")
    if res.get("support") is not None and res["support"][3] != len(members):
        out.append(f"support size {res['support'][3]} != {len(members)}")
    if res.get("select") is not None:
        for j, got in zip(*res["select"]):
            if got != members[j - 1]:
                out.append(f"select({j}) = {got}, expected {members[j - 1]}")
                break
    if res.get("rank") is not None:
        for j, got in zip(*res["rank"]):
            if got != bisect_left(members, j):
                out.append(f"rank({j}) = {got}, expected "
                           f"{bisect_left(members, j)}")
                break
    return out


def _mask_from_decode(data: bytes, n: int) -> list[int]:
    values = [int(v) for v in data.split()]
    if len(values) != n or any(v not in (0, 1) for v in values):
        raise ValueError("decoded output is not an n-entry 0/1 sequence")
    return [i for i, v in enumerate(values) if v]


def check_cli(text, res: dict, explicit: dict, check_set, what) -> list[str]:
    out = []
    n, tau = text.n, text.cli_tau
    if res.get("list") is None:
        return out      # the failed sync is counted; nothing to compare
    members = [int(v) for v in res["list"].split()]
    check_set(f"{what} list file", tau, members)
    if tau in explicit and explicit[tau] != members:
        out.append("list file differs from build_sync_explicit")
    if res.get("bitmask") is not None:
        try:
            bits, decoded_len = checker.read_container(res["bitmask"])
            if decoded_len != n or len(bits) != n:
                out.append("bitmask container lengths differ from n")
            elif checker.mask_positions(bits) != members:
                out.append("bitmask container differs from the list file")
        except ValueError as exc:
            out.append(f"bitmask container unreadable: {exc}")
    if res.get("sparse") is not None:
        try:
            bits, decoded_len = checker.read_container(res["sparse"])
            if checker.decode_mask_tokens(bits, n) != members:
                out.append("sparse container differs from the list file")
            if decoded_len != n:
                out.append("sparse container decoded length differs from n")
        except ValueError as exc:
            out.append(f"sparse container unreadable: {exc}")
    for key in ("decode", "decode_bitmask"):
        if res.get(key) is not None:
            try:
                if _mask_from_decode(res[key], n) != members:
                    out.append(f"{key} output differs from the list file")
            except ValueError as exc:
                out.append(f"{key} output: {exc}")
    for kind in ("rank", "select"):
        for j, rc, stdout in res.get(kind, []):
            if kind == "rank":
                want = bisect_left(members, j)
            else:
                want = members[j - 1] if j <= len(members) else None
            if rc == 0 and stdout.strip() != str(want):
                out.append(f"query --{kind} {j} printed {stdout.strip()!r}, "
                           f"expected {want}")
    for fmt, (rc, stdout) in res.get("verify", {}).items():
        if rc == 0 and stdout.strip() != "ok":
            out.append(f"verify --set {fmt} printed {stdout.strip()!r}")
    return out
