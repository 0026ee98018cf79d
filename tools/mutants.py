#!/usr/bin/env python3
"""A catalogue of mutants of tausync, and the tests that must kill them.

Each mutant is one exact text replacement in one file under `src/`, with
the test node ids expected to kill it.  The tool copies `src/`, `tests/`
and `tools/` (the behaviour digest test loads its tool) to a temporary
directory, checks that every mutant's old text occurs exactly once in
its file (and stops with exit 2 if one does not, so a mutant is updated
along with the code it mutates), runs all the
named tests once on the unmutated copy (they must pass), and then, one
mutant at a time, applies it, runs its tests and restores the file.  A
mutant is killed when every test named for it fails; a parametrized test
named without its parameters fails when any of its cases does.  A
mutant's run that takes 20 s more than three times its tests' unmutated
time is stopped and split into one run per test, and a test that again
overruns its own limit counts as failed.

    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py NAME ...   # the named ones
    python3 tools/mutants.py --list

It prints one line per mutant (killed or survived, the seconds it took,
any named test that passed and any that timed out) and exits 1 if one
survived.  It is not part of Tier-1; a change to a mutated function runs
it.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class Mutant(NamedTuple):
    name: str
    path: str          # relative to the repository root
    old: str
    new: str
    tests: tuple       # node ids, relative to the repository root


SC = "src/tausync/sparsecodec.py"
TD = "src/tausync/transducer.py"
RC = "src/tausync/recompress.py"
CLI = "src/tausync/cli.py"
RS = "src/tausync/ranksupport.py"
SS = "src/tausync/syncset.py"
ST = "src/tausync/reference/sync_transducer.py"
REF_RS = "src/tausync/reference/ranksupport.py"
RN = "src/tausync/runs.py"
OR = "src/tausync/oracle.py"
TX = "src/tausync/text.py"

SUPPORT_TESTS = ("tests/test_fastpath.py::"
                 "test_support_answers_as_the_decomposition",
                 "tests/test_behaviour_digest.py::"
                 "test_quick_digest_matches_the_snapshot")
GAP_TESTS = ("tests/test_syncset.py::test_gap_path_matches_the_oracle",
             "tests/test_syncset.py::test_explicit_matches_definition",
             "tests/test_behaviour_digest.py::"
             "test_quick_digest_matches_the_snapshot")
CHAIN_TESTS = ("tests/test_recompress.py::test_chain_pinned_exactly",
               "tests/test_behaviour_digest.py::"
               "test_quick_digest_matches_the_snapshot")
ROUND_TESTS = CHAIN_TESTS + ("tests/test_recompress.py::"
                             "test_rounds_match_the_rules",)
CUT_TESTS = CHAIN_TESTS + ("tests/test_recompress.py::"
                           "test_max_dicut_matches_the_rule",)
PAIR_TESTS = ROUND_TESTS + ("tests/test_recompress.py::"
                            "test_round_pair_rekeys_the_neighbours_of_a_"
                            "merged_run",)
DECIMAL_RULE = "tests/test_cli.py::test_decimal_read_matches_the_line_rule"
SHARED_PARSER = "tests/test_cli.py::test_shared_parser_prints_as_a_fresh_one"
DIRECTORY_TESTS = ("tests/test_ranksupport.py::"
                   "test_support_rank_directory_edge_cases",
                   "tests/test_ranksupport.py::"
                   "test_support_rank_directory_on_a_dense_k0_set")
PACKED_TESTS = ("tests/test_runs.py::"
                "test_packed_runs_match_brute_at_every_boundary",
                "tests/test_runs.py::test_packed_runs_match_brute")
PERIOD_TESTS = ("tests/test_runs.py::"
                "test_shifts_recover_the_smallest_period_of_planted_runs",
                "tests/test_runs.py::test_enumerate_short_periods_match_brute")
BITMASK_TESTS = ("tests/test_runs.py::test_runs_bitmask_matches_periods",
                 "tests/test_runs.py::test_period_at_most_exhaustive_small")

MUTANTS = [
    # -- the window parse and the piece walk ------------------------------------
    Mutant("parse-accepts-adjacent-zero-runs", SC,
           "            if not is_literal and values and not values[-1]:\n"
           "                break\n",
           "",
           ("tests/test_sparsecodec.py::"
            "test_parse_is_the_longest_decodable_prefix_exhaustively",
            "tests/test_transducer.py::"
            "test_zipper_parses_are_the_decodable_prefixes",
            "tests/test_ranksupport.py::"
            "test_decompose_rejects_like_window_loop",
            "tests/test_ranksupport.py::"
            "test_decompose_accepts_what_decode_accepts")),
    Mutant("parse-selects-count-from-one", SC,
           "compress(count(), values)",
           "compress(count(1), values)",
           ("tests/test_sparsecodec.py::"
            "test_parse_is_the_longest_decodable_prefix_exhaustively",
            "tests/test_sparsecodec.py::test_prefix_parse_rank_select_fields",
            "tests/test_ranksupport.py::"
            "test_decomposition_rank_select_match_bisection")),
    # bisect_right, for the integer positions that selects holds
    Mutant("parse-rank-bisects-right", SC,
           "        return bisect_left(self.selects, j)\n",
           "        return bisect_left(self.selects, j + 1)\n",
           ("tests/test_sparsecodec.py::"
            "test_parse_is_the_longest_decodable_prefix_exhaustively",
            "tests/test_sparsecodec.py::test_prefix_parse_rank_select_fields",
            "tests/test_ranksupport.py::"
            "test_decomposition_rank_select_match_bisection")),
    Mutant("memo-takes-wider-windows", SC,
           "        if len(w) > WINDOW_BITS:",
           "        if len(w) > WINDOW_BITS + 1:",
           ("tests/test_sparsecodec.py::"
            "test_parse_digits_memo_holds_each_window_once",)),
    Mutant("step-swaps-the-zero-run-flags", SC,
           "info.b > 0 and not values[0],\n"
           "                                info.b > 0 and not values[-1], info)",
           "info.b > 0 and not values[-1],\n"
           "                                info.b > 0 and not values[0], info)",
           ("tests/test_sparsecodec.py::"
            "test_parse_digits_memo_holds_each_window_once",
            "tests/test_sparsecodec.py::"
            "test_reader_matches_reference_on_corruptions")),
    Mutant("step-keys-a-plus-from-a", SC,
           "(b, info.a, info.a_plus,",
           "(b, info.a, info.a,",
           ("tests/test_sparsecodec.py::"
            "test_parse_digits_memo_holds_each_window_once",
            "tests/test_ranksupport.py::"
            "test_decomposition_rank_select_match_bisection")),
    Mutant("walk-no-adjacency-check-at-a-piece-boundary", SC,
           "            if after_zero_run and opens_with_zero_run:\n"
           "                raise DecodeError(\"adjacent zero-run tokens\", pos)\n",
           "",
           ("tests/test_ranksupport.py::test_decompose_rejects_like_window_loop"
            "[adjacent-short-short-65536]",
            "tests/test_ranksupport.py::test_decompose_rejects_like_window_loop"
            "[adjacent-long-short-65536]",
            "tests/test_sparsecodec.py::"
            "test_reader_matches_reference_on_corruptions",
            "tests/test_ranksupport.py::"
            "test_decompose_accepts_what_decode_accepts")),
    Mutant("walk-no-adjacency-check-at-a-wide-token", SC,
           "            if after_zero_run and not is_literal:\n"
           "                raise DecodeError(\"adjacent zero-run tokens\", pos)\n",
           "",
           ("tests/test_ranksupport.py::test_decompose_rejects_like_window_loop"
            "[adjacent-short-long-65536]",
            "tests/test_ranksupport.py::"
            "test_decompose_accepts_what_decode_accepts")),
    Mutant("walk-wide-literal-counts-no-one", SC,
           "            ones += is_literal\n",
           "",
           ("tests/test_ranksupport.py::"
            "test_decompose_accepts_what_decode_accepts",
            "tests/test_cli.py::test_query_container_with_wide_literal")),
    Mutant("walk-wide-literal-stores-a-wrong-b", SC,
           "ParseInfo(stop - pos, 1, 1, (x,), (0,))",
           "ParseInfo(stop - pos - 1, 1, 1, (x,), (0,))",
           ("tests/test_ranksupport.py::"
            "test_decompose_accepts_what_decode_accepts",)),
    Mutant("walk-drops-a-wide-literal", SC,
           "            parses.append(ParseInfo(stop - pos, 1, 1, (x,), (0,))\n"
           "                          if is_literal else None)\n",
           "            parses.append(None)\n",
           ("tests/test_ranksupport.py::"
            "test_decompose_accepts_what_decode_accepts",
            "tests/test_sparsecodec.py::"
            "test_reader_matches_reference_on_corruptions")),
    Mutant("walk-bulk-count-one-window-long", SC,
           "- pos) // k",
           "- pos) // k + 1",
           ("tests/test_ranksupport.py::"
            "test_decompose_matches_window_loop_on_every_stretch",
            "tests/test_ranksupport.py::test_decompose_rejects_like_window_loop"
            "[ones-length-65536]")),
    Mutant("walk-bulk-parses-one-short", SC,
           "parses += repeat(info, c)",
           "parses += repeat(info, c - 1)",
           ("tests/test_ranksupport.py::"
            "test_decompose_matches_window_loop_on_every_stretch",)),
    # -- the transducers --------------------------------------------------------
    Mutant("jump-cycle-index-off-by-one", TD,
           "walk[cycle + (d - cycle) % (len(walk) - cycle)]",
           "walk[cycle + (d - cycle + 1) % (len(walk) - cycle)]",
           ("tests/test_transducer.py::test_jump_cycle",
            "tests/test_transducer.py::test_jump_random_vs_walk")),
    Mutant("zipper-dangling-zeros-checked-on-one-side", TD,
           "if not any(xs[len(ys):]) and not any(ys[len(xs):]))",
           "if not any(ys[len(xs):]))",
           ("tests/test_transducer.py::test_zip_entry_matches_the_rule",)),
    Mutant("zipper-best-pair-by-the-first-side-alone", TD,
           "key=lambda c: c[0] + c[2])",
           "key=lambda c: c[0])",
           ("tests/test_transducer.py::test_zip_entry_matches_the_rule",)),
    Mutant("zipper-parses-drop-the-empty-prefix", TD,
           "[(j, info.values) for j in range(len(w) + 1)",
           "[(j, info.values) for j in range(1, len(w) + 1)",
           ("tests/test_transducer.py::"
            "test_zipper_parses_are_the_decodable_prefixes",)),
    Mutant("zipper-ignores-zeros-past-the-cap", TD,
           "        if z1 > z1c or z2 > z2c:\n",
           "        if False:\n",
           ("tests/test_transducer.py::test_zip_pair_matches_naive",)),
    Mutant("zipper-swaps-two-wide-literals", TD,
           "            out.append((True, zip_symbol((v1, v2))))",
           "            out.append((True, zip_symbol((v2, v1))))",
           ("tests/test_transducer.py::test_zip_pair_matches_naive",
            "tests/test_transducer.py::test_zip_multi_inverts")),
    Mutant("accel-wide-literal-read-as-zero", TD,
           "                state, out = spec.delta(state, value)",
           "                state, out = spec.delta(state, 0)",
           ("tests/test_transducer.py::test_accelerated_equals_naive",
            "tests/test_acceptance.py::"
            "test_criterion_5_transducer_master_property")),
    Mutant("accel-fixed-micro-step-drops-its-output", TD,
           "                    z = self._flush(tokens, z, entry)\n"
           "                    state = entry.state\n"
           "                    n += fixed\n",
           "                    z += fixed\n"
           "                    state = entry.state\n"
           "                    n += fixed\n",
           ("tests/test_transducer.py::test_accelerated_equals_naive",
            "tests/test_acceptance.py::"
            "test_criterion_5_transducer_master_property")),
    # -- shifts over packed, byte and four-byte lanes --------------------------
    Mutant("bitmask-union-ends-a-window-short", RN,
           "digits[b:e - ell + 1]",
           "digits[b:e - ell]",
           BITMASK_TESTS),
    Mutant("wide-lane-fold-skips-the-second-byte", RN,
           "            z |= z >> 8\n",
           "",
           ("tests/test_runs.py::"
            "test_enumerate_runs_paths_agree_on_surrogate_ranks",
            "tests/test_runs.py::test_period_at_most_exhaustive_small")),
    Mutant("byte-lane-stretch-recorded-without-q", RN,
           "key = at, to + q",
           "key = at, to",
           BITMASK_TESTS + ("tests/test_runs.py::"
                            "test_enumerate_short_periods_match_brute",)),
    Mutant("shift-scan-starts-one-shift-late", RN,
           "range(p // 2 + 1, p + 1)",
           "range(p // 2 + 2, p + 1)",
           PERIOD_TESTS),
    Mutant("single-shift-run-keeps-its-shift", RN,
           "q // 2 if q % 2 == 0 and 3 * q > 2 * p",
           "q // 2 if False",
           PERIOD_TESTS),
    Mutant("two-shift-run-keeps-its-first-shift", RN,
           "found[key] = gcd(g, q)",
           "found[key] = g",
           PERIOD_TESTS),
    Mutant("lanes-reversed-within-a-byte", TX,
           "<< bits * j",
           "<< bits * (m - 1 - j)",
           ("tests/test_text.py::test_lanes_equal_the_hex_parse",)),
    Mutant("lanes-left-end-off-by-one", RN,
           "b = at * m - high[diff[at - 1]] if at else 0",
           "b = at * m - high[diff[at - 1]] + 1 if at else 0",
           PACKED_TESTS),
    Mutant("lanes-tail-not-marked", RN,
           "e = min(to * m + low[diff[to]], stop)",
           "e = to * m + low[diff[to]]",
           PACKED_TESTS),
    Mutant("lanes-low-table-read-from-the-high-end", RN,
           "low[diff[to]]",
           "high[diff[to]]",
           PACKED_TESTS),
    Mutant("oracle-period-scan-stops-one-short", OR,
           "min(p, self.n // 2) + 1)",
           "min(p, self.n // 2))",
           ("tests/test_oracle.py::"
            "test_verify_sync_scans_only_the_periods_it_needs",
            "tests/test_oracle.py::test_verify_sync_accepts_construction")),
    # -- the recompression chain ------------------------------------------------
    Mutant("chain-fresh-gap-string-per-level", RC,
           "gaps = self.gaps[k] = gaps or _gaps(bounds)",
           "gaps = self.gaps[k] = _gaps(bounds)",
           ("tests/test_recompress.py::"
            "test_a_skipped_stretch_shares_one_gap_string",)),
    Mutant("chain-gaps-kept-after-a-drop", RC,
           "                gaps = None\n",
           "",
           ("tests/test_recompress.py::test_depths_reproduce_every_level",)),
    Mutant("chain-exact-depths-ignored", RC,
           "            if d > k:\n                out[f] = ord(\"1\")\n",
           "            pass\n",
           ("tests/test_recompress.py::test_depth_overflow_past_a_small_cap",)),
    Mutant("chain-lambda-check-after-the-top-check", RC,
           "        if lambda_exceeds_4n(k, self.t.n):\n"
           "            return bytearray(b\"0\") * self.t.n\n"
           "        if k > self.top:\n"
           "            raise InvalidArgument(f\"level {k} is past this index's top \"\n"
           "                                  f\"level {self.top}\")\n",
           "        if k > self.top:\n"
           "            raise InvalidArgument(f\"level {k} is past this index's top \"\n"
           "                                  f\"level {self.top}\")\n"
           "        if lambda_exceeds_4n(k, self.t.n):\n"
           "            return bytearray(b\"0\") * self.t.n\n",
           ("tests/test_recompress.py::"
            "test_truncated_index_reads_like_the_whole_chain",)),
    Mutant("chain-stops-a-level-before-top", RC,
           "            if k == self.top:\n",
           "            if k == self.top - 1:\n",
           ("tests/test_recompress.py::"
            "test_truncated_index_reads_like_the_whole_chain",)),
    Mutant("chain-top-gap-string-not-kept", RC,
           "        while bounds and k <= self.top:\n",
           "        while bounds and k < self.top:\n",
           ("tests/test_syncset.py::"
            "test_truncated_index_keeps_the_gaps_of_its_top",)),
    Mutant("odd-round-keys-only-shorter-right-phrases", RC,
           "if f - a <= lim and b - f <= lim:",
           "if f - a <= lim and b - f < lim:",
           ROUND_TESTS),
    Mutant("cut-ties-go-to-r", RC,
           "            left[placed] = lean[placed] >= 0\n",
           "            left[placed] = lean[placed] > 0\n",
           CUT_TESTS),
    Mutant("cut-reads-earlier-sides-swapped", RC,
           "        if left[j]:\n",
           "        if not left[j]:\n",
           CUT_TESTS),
    # -- one lambda step: the even round's drops are the self-loop pairs ------
    Mutant("pair-rekey-skips-the-right-neighbour", RC,
           "                near += a, b\n",
           "                near.append(a)\n",
           PAIR_TESTS),
    Mutant("pair-self-loops-left-in-the-cut", RC,
           "            if left != right:\n"
           "                pairs[left, right].append(f)\n"
           "            else:\n",
           "            pairs[left, right].append(f)\n"
           "            if left == right:\n",
           PAIR_TESTS),
    Mutant("pair-survivor-stays-in-its-old-pair", RC,
           "            pairs[e] = list(filterfalse(fs.__contains__, pairs[e]))\n",
           "            pass\n",
           PAIR_TESTS),
    Mutant("pair-rekeys-a-self-loop", RC,
           "and s[fa:f] != s[f:fb]:",
           ":",
           PAIR_TESTS[-1:]),
    Mutant("pair-cuts-without-cut", RC,
           "    if not cut:\n        return even, []\n",
           "",
           ("tests/test_recompress.py::test_rounds_match_the_rules",)),
    Mutant("top-between-the-rounds-records-the-odd-drops", RC,
           "round_pair(t, bounds, k, k + 1 < self.top)",
           "round_pair(t, bounds, k)",
           ("tests/test_recompress.py::"
            "test_a_top_between_two_rounds_runs_only_the_even_one",)),
    Mutant("odd-round-orders-nodes-by-length-alone", RC,
           "sorted(sorted({u for e in pairs for u in e}), key=len)",
           "sorted({u for e in pairs for u in e}, key=len)",
           ROUND_TESTS),
    # -- the set's gap pieces and the library support ----------------------------
    Mutant("gaps-slice-shifted-by-one", SS,
           "gaps[j + 1:j + count]",
           "gaps[j + 2:j + count + 1]",
           GAP_TESTS),
    Mutant("gaps-first-count-reads-one-digit-more", SS,
           "at, j = tau, digits.count(b\"1\", 0, tau)",
           "at, j = tau, digits.count(b\"1\", 0, tau + 1)",
           GAP_TESTS),
    Mutant("gaps-end-counts-one-digit-more", SS,
           "end = len(gaps) - digits.count(b\"1\", n - tau + 1)",
           "end = len(gaps) - digits.count(b\"1\", n - tau)",
           GAP_TESTS),
    Mutant("gaps-block-skips-one-boundary-fewer", SS,
           "j += digits.count(b\"1\", f, last + 1)",
           "j += digits.count(b\"1\", f, last)",
           GAP_TESTS),
    Mutant("run-candidates-drop-the-last-window", SS,
           "if 0 <= i <= hi}",
           "if 0 <= i < hi}",
           GAP_TESTS[:2]),
    # the set is the same either way: only the spy on the call tells
    Mutant("k0-asks-runs-of-length-tau", SS,
           "    return 2 * tau if k == 0 else tau\n",
           "    return tau\n",
           ("tests/test_syncset.py::test_one_run_enumeration_per_query",)),
    Mutant("blocks-skip-runs-of-exactly-2-tau", SS,
           "if r.end - r.start >= 2 * tau]",
           "if r.end - r.start > 2 * tau]",
           GAP_TESTS),
    Mutant("support-rank-bisects-right", RS,
           "return bisect_left(self.members, j, d[b], d[b + 1])",
           "return bisect_right(self.members, j, d[b], d[b + 1])",
           SUPPORT_TESTS + ("tests/test_fastpath.py::test_sync_with_support",)),
    Mutant("rank-directory-bucket-one-short", RS,
           "i + step if i <= top else size",
           "i + step - 1 if i <= top else size",
           DIRECTORY_TESTS),
    Mutant("rank-directory-next-bucket", RS,
           "d[b], d[b + 1])",
           "d[b + 1], d[b + 2])",
           DIRECTORY_TESTS + SUPPORT_TESTS[:1]),
    Mutant("support-select-reads-the-next-member", RS,
           "        return self.members[j - 1]\n",
           "        return self.members[j]\n",
           SUPPORT_TESTS + ("tests/test_fastpath.py::test_sync_with_support",
                            "tests/test_fastpath.py::"
                            "test_support_never_reads_its_stream")),
    Mutant("support-stores-n-plus-one", RS,
           "        self.n = encoding.decoded_len\n",
           "        self.n = encoding.decoded_len + 1\n",
           ("tests/test_ranksupport.py::test_support_rank_checks_its_stored_n",
            DIRECTORY_TESTS[0])),
    Mutant("support-select-accepts-zero", RS,
           "        if not 1 <= j <= self.size:\n",
           "        if not 0 <= j <= self.size:\n",
           SUPPORT_TESTS),
    Mutant("unit-directory-drops-initial", RS,
           "list(accumulate(flags, initial=0))",
           "list(accumulate(flags))",
           ("tests/test_ranksupport.py::test_unit_and_wide_buckets_agree",
            "tests/test_ranksupport.py::"
            "test_support_picks_unit_buckets_up_to_the_table_limit")),
    # the answers stay the same: only the width tells
    Mutant("rank-table-threshold-strict", RS,
           "small = encoding.decoded_len <= RANK_TABLE_N",
           "small = encoding.decoded_len < RANK_TABLE_N",
           ("tests/test_ranksupport.py::"
            "test_support_picks_unit_buckets_up_to_the_table_limit",)),
    # -- the reference structures ----------------------------------------------
    Mutant("reference-select-walk-skips-the-first-token", REF_RS,
           "        starts = []\n        pos = 0\n",
           "        starts = []\n"
           "        pos = sc.gamma_at(digits, 1)[1] if digits else 0\n",
           ("tests/test_ranksupport.py::"
            "test_decomposition_rank_select_match_bisection",
            "tests/test_ranksupport.py::test_select_after_rank_identity")),
    Mutant("markers-drop-runs-of-exactly-ell", ST,
           "xl >= ell else 0",
           "xl > ell else 0",
           ("tests/test_fastpath.py::test_sync_transducer_large_run_tables",)),
    # -- the CLI ----------------------------------------------------------------
    Mutant("recompress-builds-rounds-past-lambda-4n", CLI,
           "    top = 0 if level < 0 or rc.lambda_exceeds_4n(level, t.n) "
           "else level\n",
           "    top = max(level, 0)\n",
           ("tests/test_recompress.py::"
            "test_cli_recompress_past_lambda_4n_runs_no_round",)),
    Mutant("dispatch-drops-leftover-arguments", CLI,
           "    if extras:\n"
           "        parser.error(\"unrecognized arguments: %s\" % \" \".join(extras))\n",
           "",
           (SHARED_PARSER,)),
    Mutant("dispatch-reports-leftovers-with-the-command-parser", CLI,
           "        parser.error(\"unrecognized arguments: %s\"",
           "        command.error(\"unrecognized arguments: %s\"",
           (SHARED_PARSER,)),
    Mutant("lines-drop-the-last-newline", CLI,
           '    return "%s\\n" * len(values) % values\n',
           '    return ("%s\\n" * len(values))[:-1] % values\n',
           ("tests/test_cli.py::test_lines_match_the_joined_lines",
            "tests/test_cli.py::test_query_out_writes_the_answers",
            "tests/test_cli.py::test_cli_sync_matches_the_whole_index")),
    Mutant("decimal-field-check-takes-one-field", CLI,
           "<= {0, 2}:",
           "<= {0, 1, 2}:",
           (DECIMAL_RULE,)),
    Mutant("decimal-bad-line-numbered-from-2", CLI,
           'enumerate(text.split("\\n"), start=1)',
           'enumerate(text.split("\\n"), start=2)',
           (DECIMAL_RULE,)),
    Mutant("decimal-unsorted-indices-used-as-read", CLI,
           "            symbols = [s for _, s in pairs]\n",
           "",
           (DECIMAL_RULE,)),
    Mutant("decimal-index-check-skipped", CLI,
           "            if [i for i, _ in pairs] != list(range(len(pairs))):\n",
           "            if False:\n",
           (DECIMAL_RULE, "tests/test_cli.py::"
            "test_decimal_indices_not_0_to_n_usage_error")),
]


def check(tree: str, mutants) -> list[str]:
    """Problems with the catalogue against the files under `tree`."""
    problems = []
    names = [m.name for m in mutants]
    for name in sorted({n for n in names if names.count(n) > 1}):
        problems.append(f"{name}: the name is used twice")
    for m in mutants:
        path = os.path.join(tree, m.path)
        if not os.path.exists(path):
            problems.append(f"{m.name}: no file {m.path}")
            continue
        with open(path) as fh:
            found = fh.read().count(m.old)
        if found != 1:
            problems.append(f"{m.name}: old text found {found} times in "
                            f"{m.path}, expected once")
    return problems


def run_tests(tree: str, tests, took: dict | None = None
              ) -> tuple[int, set, str]:
    """(pytest exit code, failed node ids, output) of `tests` in `tree`.

    With `took`, the unmutated seconds of each test, a run still going
    after 20 s (pytest's start-up) plus three times their sum is stopped
    and each test is run alone; one that again overruns its limit (a
    mutant can make a build loop forever) counts as failed."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    limit = None if took is None else 20.0 + 3 * sum(
        took.get(test.partition("[")[0], 0.0) for test in tests)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "--durations=0",
             "-p", "no:cacheprovider", *tests],
            cwd=tree, env=env, capture_output=True, text=True, timeout=limit)
    except subprocess.TimeoutExpired:
        if len(tests) == 1:
            return 1, set(tests), f"timed out after {limit:.0f}s: {tests[0]}\n"
        runs = [run_tests(tree, (test,), took) for test in tests]
        return (max(code for code, _, _ in runs),
                set().union(*(failed for _, failed, _ in runs)),
                "".join(output for _, _, output in runs))
    failed = set(re.findall(r"^FAILED (\S+)", result.stdout, re.M))
    return result.returncode, failed, result.stdout + result.stderr


def failed_test(test: str, failed: set) -> bool:
    return any(f == test or f.startswith(test + "[") for f in failed)


def durations(output: str) -> dict:
    """Seconds per test node id (all phases and parameters summed) from
    pytest's --durations=0 report."""
    took: dict = {}
    for secs, test in re.findall(r"^([0-9.]+)s \w+ +([^\s\[]+)", output,
                                 re.M):
        took[test] = took.get(test, 0.0) + float(secs)
    return took


def main(argv) -> int:
    if argv == ["--list"]:
        for m in MUTANTS:
            print(f"{m.name}  {m.path}  ({len(m.tests)} tests)")
        return 0
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    problems = check(ROOT, chosen)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="tausync-mutants-") as tree:
        for part in ("src", "tests", "tools"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(tree, part),
                            ignore=shutil.ignore_patterns("__pycache__"))
        tests = sorted({t for m in chosen for t in m.tests})
        start = time.perf_counter()
        code, _, output = run_tests(tree, tests)
        if code != 0:
            print(output, file=sys.stderr)
            print("the named tests do not pass on the unmutated code",
                  file=sys.stderr)
            return 2
        print(f"unmutated: {len(tests)} tests pass "
              f"({time.perf_counter() - start:.1f}s)")
        took = durations(output)
        survivors = 0
        for m in chosen:
            path = os.path.join(tree, m.path)
            with open(path) as fh:
                original = fh.read()
            with open(path, "w") as fh:
                fh.write(original.replace(m.old, m.new))
            start = time.perf_counter()
            try:
                code, failed, output = run_tests(tree, m.tests, took)
            finally:
                with open(path, "w") as fh:
                    fh.write(original)
            seconds = time.perf_counter() - start
            if code not in (0, 1):
                print(output, file=sys.stderr)
                print(f"{m.name}: pytest exited {code}", file=sys.stderr)
                return 2
            passed = [t for t in m.tests if not failed_test(t, failed)]
            survivors += bool(passed)
            verdict = "SURVIVED" if passed else "killed"
            print(f"{verdict:8} {m.name} ({seconds:.1f}s)"
                  + "".join(f"\n         passed: {t}" for t in passed)
                  + "".join(f"\n         {line}" for line in
                            re.findall(r"^timed out .*", output, re.M)))
    print(f"{len(chosen) - survivors} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
