import argparse
import contextlib
import glob
import io
import os
import random
import shutil
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

import tausync
from tausync import sparsecodec as sc
from tausync import syncset as ss
from tausync.bitstream import BitStream
from tausync import cli
from tausync.cli import build_parser, main
from tausync.errors import InvalidInput
from tausync.oracle import TextIndex, verify_sync
from tausync.recompress import RecompressionIndex
from tausync.text import PackedText


@pytest.fixture
def text_file(tmp_path):
    rng = random.Random(9)
    symbols = bytes(rng.randrange(4) for _ in range(160))
    path = tmp_path / "text.bin"
    path.write_bytes(symbols)
    return str(path), list(symbols)


def test_sync_list_verified(tmp_path, text_file, capsys):
    path, symbols = text_file
    out = tmp_path / "sync.txt"
    rc = main(["sync", path, "--sigma", "4", "--tau", "8", "--format", "list",
               "--verify", "--out", str(out)])
    assert rc == 0
    members = [int(line) for line in out.read_text().split()]
    assert members == sorted(members)
    assert verify_sync(symbols, 8, members, TextIndex(symbols)).ok


@pytest.mark.parametrize("fmt", ["list", "bitmask", "sparse"])
def test_sync_verify_failure_writes_nothing(tmp_path, monkeypatch, capsys,
                                            fmt):
    # a block written twice: positions 0 and 60 start the same 2tau window,
    # so a set without its first member is inconsistent
    rng = random.Random(9)
    block = bytes(rng.randrange(4) for _ in range(60))
    path = tmp_path / "text.bin"
    path.write_bytes(block * 2)
    real = ss.build_sync_explicit
    monkeypatch.setattr(ss, "build_sync_explicit",
                        lambda index, tau: real(index, tau)[1:])
    out = tmp_path / "sync.out"
    assert main(["sync", str(path), "--sigma", "4", "--tau", "8",
                 "--format", fmt, "--verify", "--out", str(out)]) == 1
    assert capsys.readouterr() == (
        "", "verification failed: consistency: positions 0 and 60 share a "
        "window but disagree\n")
    assert not out.exists()


def test_sync_sparse_support_roundtrip(tmp_path, text_file, capsys):
    path, symbols = text_file
    cont = tmp_path / "sync.bin"
    assert main(["sync", path, "--sigma", "4", "--tau", "8",
                 "--format", "sparse", "--out", str(cont)]) == 0
    listed = tmp_path / "sync.txt"
    assert main(["sync", path, "--sigma", "4", "--tau", "8",
                 "--format", "list", "--out", str(listed)]) == 0
    first = int(listed.read_text().split()[0])
    assert main(["query", str(cont), "--select", "1"]) == 0
    assert capsys.readouterr().out.strip() == str(first)
    assert main(["verify", path, "--sigma", "4", "--tau", "8",
                 "--set", str(cont)]) == 0


def _run_fresh(script, *flags):
    """stdout lines of `script` run by a fresh interpreter on this tausync,
    started with the interpreter `flags`."""
    src = os.path.dirname(os.path.dirname(tausync.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, *flags, "-c", script],
                            capture_output=True,
                            text=True, timeout=120,
                            env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


@pytest.mark.parametrize("fmt", ["list", "sparse", "bitmask"])
def test_python_m_tausync_runs_the_cli(tmp_path, text_file, capsys, fmt):
    # `python -m tausync sync` exits, writes and reports as the in-process
    # main does; tau 200 is past n / 2, a usage error that writes nothing
    path, _ = text_file
    src = os.path.dirname(os.path.dirname(tausync.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for tau, want in (("8", 0), ("200", 2)):
        argv = ["sync", path, "--sigma", "4", "--tau", tau, "--format", fmt]
        outs = tmp_path / f"module-{tau}", tmp_path / f"main-{tau}"
        result = subprocess.run(
            [sys.executable, "-m", "tausync", *argv, "--out", str(outs[0])],
            capture_output=True, text=True, timeout=120, env=env)
        assert main([*argv, "--out", str(outs[1])]) == result.returncode == want
        assert result.stderr == capsys.readouterr().err
        written = [out.read_bytes() if out.exists() else None for out in outs]
        assert written[0] == written[1] and (written[0] is None) == bool(want)


def _python310():
    """A Python 3.10 interpreter that runs: python3.10 on PATH, else one in
    pyenv's versions directory; None if there is none."""
    root = os.environ.get("PYENV_ROOT") or os.path.expanduser("~/.pyenv")
    found = glob.glob(os.path.join(root, "versions", "3.10.*", "bin",
                                   "python3.10"))
    for exe in filter(None, [shutil.which("python3.10"), *sorted(found)]):
        probe = subprocess.run(
            [exe, "-S", "-c",
             "import sys; sys.exit(sys.version_info[:2] != (3, 10))"],
            capture_output=True, timeout=60)
        if probe.returncode == 0:
            return exe
    return None


def test_python_3_10_writes_what_main_writes(tmp_path, text_file,
                                             capsysbinary):
    # pyproject.toml sets the floor at Python 3.10: each command, run by a
    # fresh 3.10 interpreter without site, exits and writes to stdout as
    # main does here, byte for byte
    exe = _python310()
    if exe is None:
        pytest.skip("no Python 3.10 interpreter")
    path, symbols = text_file
    decimal = tmp_path / "text.txt"
    decimal.write_text("".join(f"{i} {s}\n" for i, s in enumerate(symbols)))
    cont = str(tmp_path / "sync.ssb")
    sync = ["sync", path, "--sigma", "4"]
    assert main(sync + ["--tau", "8", "--format", "sparse",
                        "--out", cont]) == 0
    calls = [sync + ["--tau", "4", "--format", "list"],
             sync + ["--tau", "16", "--format", "sparse"],
             ["query", cont, "--rank", "40", "--select", "2"],
             ["decode", cont],
             ["recompress", path, "--sigma", "4", "--level", "2"],
             ["runs", path, "--sigma", "4", "--ell", "4", "--period", "2"],
             ["verify", path, "--sigma", "4", "--tau", "8", "--set", cont],
             ["sync", str(decimal), "--decimal", "--sigma", "4", "--tau", "8",
              "--format", "list"],
             sync + ["--tau", "200"]]
    src = os.path.dirname(os.path.dirname(tausync.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    capsysbinary.readouterr()
    codes = []
    for argv in calls:
        fresh = subprocess.run([exe, "-S", "-m", "tausync", *argv],
                               capture_output=True, timeout=120, env=env)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsysbinary.readouterr().out
        assert (fresh.returncode, fresh.stdout) == (code, out), argv
        codes.append((code, bool(out)))
    assert codes == [(0, True)] * 8 + [(2, False)]


def test_query_loads_no_reference_module(tmp_path):
    # the package and the query path never import tausync.reference
    enc = sc.senc_from_list(40, [(1, 1), (5, 1), (17, 1), (30, 1)])
    cont = tmp_path / "set.bin"
    cont.write_bytes(enc.stream.to_bytes(enc.decoded_len))
    script = ("import sys, tausync, tausync.cli\n"
              f"code = tausync.cli.main(['query', {str(cont)!r}, '--rank', '3'])\n"
              "print(code, sorted(m for m in sys.modules\n"
              "                   if m.startswith('tausync.reference')))\n")
    assert _run_fresh(script) == ["1", "0 []"]


def test_cli_loads_no_reference_or_transducer_module(tmp_path, text_file):
    # neither the package nor any production command imports the paper's
    # reference constructions or the transducers that only they use
    path, _ = text_file
    sync = ["sync", path, "--sigma", "4", "--tau", "8"]
    cont, listed = str(tmp_path / "sync.ssb"), str(tmp_path / "sync.txt")
    calls = [sync + ["--format", "list", "--verify", "--out", listed],
             sync + ["--format", "bitmask", "--out", str(tmp_path / "m")],
             sync + ["--format", "sparse", "--verify", "--out", cont],
             ["query", cont, "--rank", "40", "--select", "2"],
             ["verify", path, "--sigma", "4", "--tau", "8", "--set", cont],
             ["verify", path, "--sigma", "4", "--tau", "8", "--set", listed],
             ["decode", cont, "--out", str(tmp_path / "d")],
             ["bench", path, "--sigma", "4", "--tau-list", "4,8",
              "--out", str(tmp_path / "b")]]
    script = ("import contextlib, io, sys, tausync, tausync.cli\n"
              f"for argv in {calls!r}:\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert tausync.cli.main(argv) == 0, argv\n"
              "print(sorted(m for m in sys.modules\n"
              "             if m.startswith('tausync.reference')\n"
              "             or m == 'tausync.transducer'))\n")
    assert _run_fresh(script) == ["[]"]


def test_commands_load_no_module_they_do_not_use(tmp_path, text_file):
    # without site (which may load typing and re), the package and the
    # commands but verify load no dataclasses, inspect, typing or oracle
    path, _ = text_file
    sync = ["sync", path, "--sigma", "4", "--tau", "8"]
    cont = str(tmp_path / "sync.ssb")
    calls = [sync + ["--format", "list", "--out", str(tmp_path / "l")],
             sync + ["--format", "bitmask", "--out", str(tmp_path / "m")],
             sync + ["--format", "sparse", "--out", cont],
             ["decode", cont, "--out", str(tmp_path / "d")],
             ["query", cont, "--rank", "40", "--select", "2"],
             ["recompress", path, "--sigma", "4", "--level", "2"],
             ["runs", path, "--sigma", "4", "--ell", "8", "--period", "2"]]
    verify = ["verify", path, "--sigma", "4", "--tau", "8", "--set", cont]
    script = ("import contextlib, io, sys, tausync.cli\n"
              "unused = ('dataclasses', 'inspect', 'typing', 'tausync.oracle')\n"
              "print(sorted(m for m in unused if m in sys.modules))\n"
              f"for argv in {calls!r} + [{verify!r}]:\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert tausync.cli.main(argv) == 0, argv\n"
              "    print(sorted(m for m in unused if m in sys.modules))\n")
    *before, after_verify = _run_fresh(script, "-S")
    assert before == ["[]"] * (1 + len(calls))
    assert "'tausync.oracle'" in after_verify   # verify may load it


def test_sync_bitmask_and_sparse_verified(tmp_path, text_file, monkeypatch):
    path, symbols = text_file
    listed = tmp_path / "sync.txt"
    assert main(["sync", path, "--sigma", "4", "--tau", "8",
                 "--format", "list", "--out", str(listed)]) == 0
    members = [int(line) for line in listed.read_text().split()]
    for fmt in ("bitmask", "sparse"):
        cont = tmp_path / f"sync.{fmt}"
        assert main(["sync", path, "--sigma", "4", "--tau", "8", "--format",
                     fmt, "--verify", "--out", str(cont)]) == 0
    # the bitmask container holds the raw n-bit mask of the list
    mask, decoded_len = BitStream.from_bytes((tmp_path / "sync.bitmask").read_bytes())
    assert decoded_len == len(mask) == len(symbols)
    assert mask.to_positions() == members
    # without --verify, the bitmask is built without listing the set
    monkeypatch.setattr(ss, "build_sync_explicit", None)
    cont = tmp_path / "unlisted.bitmask"
    assert main(["sync", path, "--sigma", "4", "--tau", "8", "--format",
                 "bitmask", "--out", str(cont)]) == 0
    assert cont.read_bytes() == (tmp_path / "sync.bitmask").read_bytes()


def test_sync_bad_tau_usage_error(text_file):
    path, symbols = text_file
    assert main(["sync", path, "--sigma", "4", "--tau", "999"]) == 2
    assert main(["sync", path, "--sigma", "4", "--tau", "0"]) == 2


def _assert_usage_error(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_decimal_line_with_three_fields_usage_error(tmp_path, capsys):
    dec = tmp_path / "text.txt"
    dec.write_text("0 1\n1 0 7\n")
    _assert_usage_error(["sync", str(dec), "--decimal", "--tau", "1"], capsys)


def test_encode_non_integer_token_usage_error(tmp_path, capsys):
    arr = tmp_path / "arr.txt"
    arr.write_text("0 3 x 1\n")
    _assert_usage_error(["encode", str(arr)], capsys)


def test_bench_bad_tau_list_usage_error(text_file, capsys):
    path, _ = text_file
    for taus in ("4,x", "4,-1,9999"):
        _assert_usage_error(["bench", path, "--sigma", "4", "--tau-list", taus],
                            capsys)


def test_bench_generate_negative_usage_error(capsys):
    _assert_usage_error(["bench", "--generate", "-5", "--tau-list", "1"],
                        capsys)


def test_bench_generate_zero_usage_error(capsys):
    _assert_usage_error(["bench", "--generate", "0", "--tau-list", "1"],
                        capsys)


def test_bench_generate_sigma_below_one_usage_error(capsys):
    for sigma in ("0", "-2"):
        _assert_usage_error(["bench", "--generate", "64", "--sigma", sigma,
                             "--tau-list", "4"], capsys)


def test_bench_generate_refuses_an_input_file(text_file, capsys):
    path, _ = text_file
    _assert_usage_error(["bench", path, "--generate", "64", "--tau-list", "4"],
                        capsys)


def test_bench_generate_refuses_decimal(capsys):
    _assert_usage_error(["bench", "--generate", "64", "--decimal",
                         "--tau-list", "4"], capsys)


def test_bench_file_refuses_a_seed(text_file, capsys):
    path, _ = text_file
    _assert_usage_error(["bench", path, "--sigma", "4", "--seed", "3",
                         "--tau-list", "4"], capsys)


def test_bench_generate_seed_defaults_to_zero(monkeypatch, capsys):
    texts = []
    real = cli.PackedText
    monkeypatch.setattr(cli, "PackedText", lambda symbols, sigma:
                        texts.append(symbols) or real(symbols, sigma))
    for seed in ([], ["--seed", "0"], ["--seed", "1"]):
        assert main(["bench", "--generate", "64", "--tau-list", "4"]
                    + seed) == 0
    assert texts[0] == texts[1] != texts[2]


def test_verify_bad_tau_usage_error(tmp_path, text_file, capsys):
    path, symbols = text_file
    listed = tmp_path / "sync.txt"
    assert main(["sync", path, "--sigma", "4", "--tau", "8",
                 "--out", str(listed)]) == 0
    for tau in (-3, 0, len(symbols) // 2 + 1):
        _assert_usage_error(["verify", path, "--sigma", "4", "--tau", str(tau),
                             "--set", str(listed)], capsys)


def test_fallback_threshold_flag_rejected(text_file, capsys):
    path, _ = text_file
    with pytest.raises(SystemExit) as exc:
        main(["sync", path, "--tau", "2", "--fallback-threshold", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_table_n_flag_rejected(tmp_path, text_file, capsys):
    path, _ = text_file
    cont = tmp_path / "arr.ssb"
    cont.write_bytes(sc.senc_encode([0, 1, 1, 0]).stream.to_bytes(4))
    for argv in (["sync", path, "--sigma", "4", "--tau", "8"],
                 ["query", str(cont), "--select", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--table-n", "4096"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_query_without_rank_or_select_usage_error(tmp_path, capsys):
    arr = tmp_path / "arr.txt"
    arr.write_text("0 1 1 0\n")
    cont = tmp_path / "arr.ssb"
    assert main(["encode", str(arr), "--out", str(cont)]) == 0
    _assert_usage_error(["query", str(cont)], capsys)


def test_query_out_writes_the_answers(tmp_path, capsys):
    cont = tmp_path / "set.ssb"
    enc = sc.senc_from_list(40, [(1, 1), (5, 1), (17, 1), (30, 1)])
    cont.write_bytes(enc.stream.to_bytes(enc.decoded_len))
    out = tmp_path / "answers.txt"
    argv = ["query", str(cont), "--select", "3", "--rank", "6"]
    assert main(argv) == 0
    assert capsys.readouterr() == ("17\n2\n", "")
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_text() == "17\n2\n"
    # an answer out of range writes nothing
    out.unlink()
    assert main(["query", str(cont), "--select", "3", "--rank", "41",
                 "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: rank argument 41 outside "
                                       "[0..40]\n")
    assert not out.exists()


def test_verify_out_writes_ok(tmp_path, text_file, capsys):
    path, _ = text_file
    listed = tmp_path / "sync.txt"
    assert main(["sync", path, "--sigma", "4", "--tau", "8",
                 "--out", str(listed)]) == 0
    argv = ["verify", path, "--sigma", "4", "--tau", "8", "--set", str(listed)]
    assert main(argv) == 0
    assert capsys.readouterr() == ("ok\n", "")
    out = tmp_path / "verdict.txt"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_text() == "ok\n"


def test_bench_sigma_help_names_generate_default(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--help"])
    assert exc.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "default 4 with --generate" in help_text


def test_decode_corrupted_sparse_container(tmp_path, text_file, capsys):
    path, _ = text_file
    cont = tmp_path / "sync.ssb"
    assert main(["sync", path, "--sigma", "4", "--tau", "8",
                 "--format", "sparse", "--out", str(cont)]) == 0
    data = cont.read_bytes()
    declared = int.from_bytes(data[4:12], "little")
    adjacent = sc.tokens_to_stream([(False, 3), (False, 2), (True, 1)])
    bad_versions = [
        data[:20] + bytes(len(data) - 20),   # no terminating 1-bit
        data[:4] + (declared + 1).to_bytes(8, "little") + data[12:],
        adjacent.to_bytes(6),                # adjacent zero-run tokens
    ]
    for bad in bad_versions:
        target = tmp_path / "bad.ssb"
        target.write_bytes(bad)
        errors = []
        for argv in (["decode", str(target), "--out", str(tmp_path / "out.txt")],
                     ["query", str(target), "--rank", "6"]):
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1
            assert "Traceback" not in err
            errors.append(err)
    # the zero run that follows a zero run starts a new piece of the query's
    # decomposition; both commands reject it at the same bit
    assert errors == ["error: adjacent zero-run tokens (bit offset 4)\n"] * 2


def _tokens(*tokens):
    return sc.tokens_to_stream(tokens)


@pytest.mark.parametrize("stream, n, message", [
    (sc.senc_from_list(40, [(1, 1), (5, 1)]).stream, 41,
     "decoded length 40 != declared 41"),
    # a zero run wider than a window, then a zero run in the next piece
    (_tokens((False, 300), (False, 2), (True, 1)), 303,
     "adjacent zero-run tokens (bit offset 18)"),
    (BitStream.from01(_tokens((True, 1), (False, 1024)).to01()[:-1]), 1025,
     "truncated gamma code (bit offset 3)"),
], ids=["length", "adjacent-across-pieces", "truncated"])
def test_readers_reject_alike(tmp_path, text_file, capsys, stream, n, message):
    # decode, query and verify --set read a container the same way, and
    # reject a corrupt one with the same text
    path, _ = text_file
    cont = tmp_path / "bad.ssb"
    cont.write_bytes(stream.to_bytes(n))
    for argv in (["decode", str(cont), "--out", str(tmp_path / "out.txt")],
                 ["query", str(cont), "--rank", "0"]):
        assert main(argv) == 1, argv
        assert capsys.readouterr() == ("", f"error: {message}\n"), argv
    assert main(["verify", path, "--sigma", "4", "--tau", "8",
                 "--set", str(cont)]) == 1
    assert capsys.readouterr() == ("", f"unreadable set: {message}\n")


def test_query_container_with_wide_literal(tmp_path, capsys):
    # the literal 300 is a token of 18 bits, wider than a 16-bit window
    arr = tmp_path / "arr.txt"
    arr.write_text("0 300 0 1\n")
    cont = tmp_path / "arr.ssb"
    assert main(["encode", str(arr), "--out", str(cont)]) == 0
    capsys.readouterr()
    for argv, out in ((["--rank", "4"], "2\n"), (["--select", "2"], "3\n"),
                      (["--rank", "2"], "1\n"), (["--select", "1"], "1\n")):
        assert main(["query", str(cont)] + argv) == 0, argv
        assert capsys.readouterr() == (out, "")


def test_decode_huge_zero_run_fails_before_expanding(tmp_path, capsys):
    # a container declaring 10 symbols that holds one zero run of 2^40
    stream = sc.senc_from_list(1 << 40, []).stream
    target = tmp_path / "huge.ssb"
    target.write_bytes(stream.to_bytes(10))
    assert main(["decode", str(target), "--out",
                 str(tmp_path / "out.txt")]) == 1
    err = capsys.readouterr().err
    assert err == "error: decoded length 1099511627776 != declared 10\n"


def test_missing_file_io_error(tmp_path):
    assert main(["sync", str(tmp_path / "absent.bin"), "--tau", "2"]) == 3


def test_encode_decode_byte_identity(tmp_path, capsys):
    arr = tmp_path / "arr.txt"
    arr.write_text("0 0 0 3 0 0 5 0 0 0 0 0 0 0 9 1 0 0\n")
    cont = tmp_path / "arr.bin"
    assert main(["encode", str(arr), "--out", str(cont)]) == 0
    first = cont.read_bytes()
    decoded = tmp_path / "back.txt"
    assert main(["decode", str(cont), "--out", str(decoded)]) == 0
    assert decoded.read_text().split() == arr.read_text().split()
    again = tmp_path / "arr2.bin"
    assert main(["encode", str(decoded), "--out", str(again)]) == 0
    assert again.read_bytes() == first


def test_verify_corrupted_container(tmp_path, text_file):
    path, _ = text_file
    cont = tmp_path / "sync.bin"
    assert main(["sync", path, "--sigma", "4", "--tau", "8",
                 "--format", "sparse", "--out", str(cont)]) == 0
    data = bytearray(cont.read_bytes())
    data[25] ^= 0xFF
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(data))
    assert main(["verify", path, "--sigma", "4", "--tau", "8",
                 "--set", str(bad)]) == 1


def test_bench_header_stable(tmp_path, text_file, capsys):
    path, _ = text_file
    assert main(["bench", path, "--sigma", "4", "--tau-list", "4,8"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,sigma,tau,repr,bits,build_ns,query_ns"
    assert main(["bench", path, "--sigma", "4", "--tau-list", "8,4"]) == 0
    assert capsys.readouterr().out.strip().splitlines()[0] == lines[0]


def test_recompress_and_runs_commands(tmp_path, text_file, capsys):
    path, symbols = text_file
    assert main(["recompress", path, "--sigma", "4", "--level", "2",
                 "--format", "list"]) == 0
    listed = [int(x) for x in capsys.readouterr().out.split()]
    assert listed == RecompressionIndex(PackedText(symbols, 4)).level_list(2)
    assert main(["runs", path, "--sigma", "4", "--ell", "6", "--period", "3",
                 "--format", "list"]) == 0
    out = capsys.readouterr().out
    for line in out.split("\n"):
        if line:
            b, e, p = map(int, line.split())
            assert e - b >= 6 and p <= 3


@pytest.mark.parametrize("values", [
    [], [0], [1, 22, 333], list(range(2500)),
    [2 ** 64, -(10 ** 40), 10 ** 300],
    ["0 12 3", "5 40 2", "100 120 7"],
], ids=["empty", "zero", "ints", "2500-ints", "large-ints", "runs-lines"])
def test_lines_match_the_joined_lines(values):
    # one format call writes what one f-string per value, joined, wrote:
    # from a list, and from the generator `runs` hands it
    want = "".join(f"{v}\n" for v in values)
    assert cli._lines(values) == want
    assert cli._lines(v for v in values) == want


def test_decimal_input(tmp_path, capsys):
    dec = tmp_path / "text.txt"
    dec.write_text("".join(f"{i} {v}\n" for i, v in
                           enumerate([0, 1, 0, 1, 0, 1, 0, 1])))
    assert main(["sync", str(dec), "--decimal", "--tau", "2",
                 "--format", "list"]) == 0
    members = [int(x) for x in capsys.readouterr().out.split()]
    assert members == sorted(set(members))


def test_decimal_wide_symbols_match_renamed_text(tmp_path, capsys):
    rng = random.Random(5)
    ranks = [rng.randrange(3) for _ in range(200)]
    values = [7, 1 << 21, 10 ** 9]
    outputs = []
    for syms in (ranks, [values[r] for r in ranks]):
        dec = tmp_path / "text.txt"
        dec.write_text("".join(f"{i} {v}\n" for i, v in enumerate(syms)))
        assert main(["sync", str(dec), "--decimal", "--tau", "20",
                     "--format", "list", "--verify"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and outputs[0].split()


def test_decimal_input_that_is_not_text_usage_error(tmp_path, capsys):
    dec = tmp_path / "text.txt"
    dec.write_bytes(b"0 1\n1 \xff\n")
    assert main(["sync", str(dec), "--decimal", "--tau", "1"]) == 2
    out, err = capsys.readouterr()
    assert not out and err.startswith(f"error: {dec}: not a text file: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("lines", [
    ["0 1", "2 0"], ["1 0", "2 1"], ["0 1", "0 1"], ["0 1", "1 0", "-1 1"]],
    ids=["gap", "from-1", "repeated", "negative"])
def test_decimal_indices_not_0_to_n_usage_error(tmp_path, capsys, lines):
    dec = tmp_path / "text.txt"
    dec.write_text("\n".join(lines))
    assert main(["sync", str(dec), "--decimal", "--tau", "1"]) == 2
    assert capsys.readouterr() == (
        "", "error: decimal input must list indices 0..n-1\n")


def test_bench_without_input_or_generate_usage_error(capsys):
    assert main(["bench", "--tau-list", "2"]) == 2
    assert capsys.readouterr() == (
        "", "error: bench needs an input file or --generate\n")


def rule_read_decimal(text: str) -> list[int]:
    """The symbols of a decimal input, read one line at a time."""
    pairs = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            idx, sym = map(int, line.split())
        except ValueError:
            raise InvalidInput(f"line {lineno}: expected 'index symbol', "
                               f"got {line.strip()!r}") from None
        pairs.append((idx, sym))
    pairs.sort()
    if [i for i, _ in pairs] != list(range(len(pairs))):
        raise cli.UsageError("decimal input must list indices 0..n-1")
    return [s for _, s in pairs]


def rule_read_symbols(args) -> tuple[list[int], int]:
    """`cli._read_symbols` of a decimal input without --sigma, by the rule."""
    symbols = rule_read_decimal(cli._read_text(args.input))
    return symbols, (max(symbols) + 1) if symbols else 256


# every str.isspace character: each splits fields, and none but "\n"
# (and "\r", which the text-mode read turns into "\n") ends a line
SPACES = [chr(c) for c in range(0x110000) if chr(c).isspace()]
ODD_TOKENS = ["x", "1.0", "", "-1", "+", "_1", "1__0", "0x1", "1e3", "²"]


@st.composite
def decimal_spellings(draw, value: int) -> str:
    """`value` as int() reads it: signed, zero-padded, with underscores
    or in Arabic-Indic digits."""
    digits = str(value)
    if draw(st.booleans()):
        return digits
    kind = draw(st.sampled_from(["sign", "pad", "underscore", "arabic"]))
    if kind == "sign":
        return "+" + digits
    if kind == "pad":
        return "0" * draw(st.integers(1, 3)) + digits
    if kind == "underscore":
        return "_".join(digits) if len(digits) > 1 else digits
    return digits.translate({ord("0") + d: 0x660 + d for d in range(10)})


@st.composite
def decimal_files(draw) -> str:
    """Decimal inputs: mostly good, with shuffled, repeated or missing
    indices, blank and CRLF lines, any whitespace, and bad lines of 1 or 3
    fields or tokens that int() refuses."""
    n = draw(st.integers(0, 24))
    order = list(range(n))
    if draw(st.booleans()):
        order = draw(st.permutations(order))
    edit = draw(st.sampled_from(["none"] * 6 + ["repeat", "drop", "shift"]))
    if edit == "repeat" and order:
        order.append(draw(st.sampled_from(order)))
    elif edit == "drop" and order:
        order.pop(draw(st.integers(0, len(order) - 1)))
    elif edit == "shift" and order:
        order[draw(st.integers(0, len(order) - 1))] += n
    space = st.sampled_from([" "] * 8 + SPACES)
    spaces = st.lists(space, max_size=2).map("".join)
    between = st.sampled_from([" "] * 8 +
                              [c for c in SPACES if c not in "\r\n"])
    lines = []
    for idx in order:
        fields = [draw(decimal_spellings(idx)),
                  draw(decimal_spellings(draw(st.integers(0, 300))))]
        lines.append(draw(spaces) + draw(between).join(fields) + draw(spaces))
    for _ in range(draw(st.integers(0, 3))):   # blank lines
        lines.insert(draw(st.integers(0, len(lines))), draw(spaces))
    if lines and draw(st.integers(0, 3)) == 0:   # one bad line
        bad = st.lists(st.one_of(st.sampled_from(ODD_TOKENS),
                                 st.integers(0, 30).map(str)),
                       min_size=1, max_size=3)
        lines[draw(st.integers(0, len(lines) - 1))] = " ".join(draw(bad))
    ends = st.sampled_from(["\n"] * 6 + ["\r\n", "\r"])
    return "".join(line + draw(ends) for line in lines[:-1]) + (
        lines[-1] + draw(st.sampled_from(["", "\n", "\r\n"])) if lines else "")


def _outcome(read, *args):
    """What `read(*args)` returns, or the type and text of what it raises."""
    try:
        return read(*args)
    except (InvalidInput, cli.UsageError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@example("0 1\n1 0 7\n", "list", 1).via("three fields")
@example("0\n1 0\n", "list", 1).via("one field")
@example("1 5\n0 6\n", "list", 1).via("shuffled")
@example("0 1\n\n1 x\n", "list", 1).via("a bad token past a blank line")
@example("0 1\r\n 1\t2 \r\n\r\n", "list", 1).via("CRLF, tabs and a blank line")
@example("+0 007\n1_0 ٣\n", "list", 1).via("signed, padded, _, Arabic")
@given(decimal_files(), st.sampled_from(["list", "sparse"]), st.integers(1, 3))
def test_decimal_read_matches_the_line_rule(tmp_path_factory, text, fmt, tau):
    # the whole-text read gives the rule's symbols or its error, and `sync`
    # on the file gives the rule's exit code, stderr and output bytes
    dec = tmp_path_factory.mktemp("decimal") / "text.txt"
    with open(dec, "w", newline="") as fh:
        fh.write(text)
    args = argparse.Namespace(decimal=True, input=str(dec), sigma=None)
    want = _outcome(rule_read_symbols, args)
    assert _outcome(cli._read_symbols, args) == want
    runs = []
    for read in (rule_read_symbols, cli._read_symbols):
        out = dec.parent / f"{read.__name__}.out"
        err = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, \
                contextlib.redirect_stderr(err):
            mp.setattr(cli, "_read_symbols", read)
            code = main(["sync", str(dec), "--decimal", "--tau", str(tau),
                         "--format", fmt, "--out", str(out)])
        runs.append((code, err.getvalue(),
                     out.read_bytes() if out.exists() else None))
    assert runs[0] == runs[1]


def _seeded_texts():
    """(symbols, sigma) of three small seeded texts."""
    rng = random.Random(23)
    rle = []
    while len(rle) < 110:
        rle.extend([rng.randrange(16)] * rng.randint(1, 9))
    return [([rng.randrange(4) for _ in range(70)], 4),
            ([rng.randrange(2) for _ in range(90)], 2), (rle[:110], 16)]


@pytest.mark.parametrize("case", range(3))
def test_cli_sync_matches_the_whole_index(tmp_path, case):
    # sync builds the chain only down to k(tau); at every tau its three
    # formats match the whole-chain SyncIndex
    symbols, sigma = _seeded_texts()[case]
    path = tmp_path / "text.bin"
    path.write_bytes(bytes(symbols))
    n = len(symbols)
    index = ss.SyncIndex(PackedText(symbols, sigma))
    out = tmp_path / "out"
    for tau in range(1, n // 2 + 1):
        want = ss.build_sync_explicit(index, tau)
        got = {}
        for fmt in ("list", "bitmask", "sparse"):
            assert main(["sync", str(path), "--sigma", str(sigma), "--tau",
                         str(tau), "--format", fmt, "--out", str(out)]) == 0
            got[fmt] = out.read_bytes()
        assert got["list"] == "".join(f"{i}\n" for i in want).encode(), tau
        mask = ss.build_sync_bitmask(index, tau)
        assert got["bitmask"] == mask.to_bytes(n), tau
        enc = sc.senc_from_list(n, [(i, 1) for i in want])
        assert got["sparse"] == enc.stream.to_bytes(enc.decoded_len), tau


@pytest.mark.parametrize("case", range(3))
def test_cli_recompress_matches_the_whole_index(tmp_path, case):
    symbols, sigma = _seeded_texts()[case]
    path = tmp_path / "text.bin"
    path.write_bytes(bytes(symbols))
    index = RecompressionIndex(PackedText(symbols, sigma))
    out = tmp_path / "out"
    for k in range(index.q + 3):
        argv = ["recompress", str(path), "--sigma", str(sigma), "--level",
                str(k), "--out", str(out)]
        assert main(argv + ["--format", "list"]) == 0
        assert out.read_text() == "".join(f"{f}\n" for f in
                                          index.level_list(k)), k
        assert main(argv + ["--format", "bitmask"]) == 0
        assert out.read_bytes() == index.level_bitmask(k).to_bytes(
            len(symbols)), k


def test_recompress_huge_level_is_quick(tmp_path, capsys):
    # a level far past the chain prints what the first empty level does
    rng = random.Random(64)
    symbols = [rng.randrange(4) for _ in range(64)]
    path = tmp_path / "text.bin"
    path.write_bytes(bytes(symbols))
    q = RecompressionIndex(PackedText(symbols, 4)).q
    for fmt in ("list", "bitmask"):
        outputs = []
        for level in (q + 1, 10 ** 9):
            out = tmp_path / f"{level}.{fmt}"
            start = time.perf_counter()
            assert main(["recompress", str(path), "--sigma", "4", "--level",
                         str(level), "--format", fmt, "--out", str(out)]) == 0
            assert time.perf_counter() - start < 1.0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


def test_recompress_negative_level_usage_error(text_file, capsys):
    path, _ = text_file
    assert main(["recompress", path, "--sigma", "4", "--level", "-1"]) == 2
    assert capsys.readouterr() == ("", "error: level must be non-negative\n")


def test_recompress_negative_level_on_an_empty_text(tmp_path, capsys):
    # every level of an empty text is empty, but a negative one is refused
    # first, as on any other text
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    for fmt in ("list", "bitmask"):
        out = tmp_path / f"level.{fmt}"
        assert main(["recompress", str(path), "--level", "-1", "--format",
                     fmt, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: level must be non-negative\n")
        assert not out.exists()


def test_successive_calls_share_no_arguments(tmp_path, capsys):
    # one parser serves every call; each call parses its own arguments
    cont = tmp_path / "set.bin"
    enc = sc.senc_from_list(40, [(1, 1), (5, 1), (17, 1), (30, 1)])
    cont.write_bytes(enc.stream.to_bytes(enc.decoded_len))
    assert main(["query", str(cont), "--rank", "6"]) == 0
    assert capsys.readouterr() == ("2\n", "")
    assert main(["query", str(cont), "--select", "3"]) == 0
    assert capsys.readouterr() == ("17\n", "")


COMMANDS = ["sync", "recompress", "runs", "encode", "decode", "query",
            "verify", "bench"]


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["sync", "--help"], ["recompress", "--help"],
    ["bench", "--help"], ["sync", "text.bin"], ["nope"],
    ["query", "c.bin", "--rank", "x"], ["runs", "t", "--ell", "2"],
    # leftovers after a command, reported by the top-level parser
    ["query", "c.bin", "--rank", "1", "extra"],
    ["decode", "c.bin", "d.bin", "--fast"],
    ["sync", "t", "--tau", "2", "more", "--x"],
    # an abbreviated option, "--", a missing positional and help first
    ["query", "c.bin", "--ra", "x"], ["query", "--", "c.bin", "--rank"],
    ["decode", "--out", "o"], ["runs", "-h", "t"],
    *([command, "-h"] for command in COMMANDS)])
def test_shared_parser_prints_as_a_fresh_one(argv, capsys):
    # help and usage errors read as from a parser built for the call; a
    # call that names a command goes to that command's parser alone
    def run(parse):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        return exc.value.code, capsys.readouterr()
    first = run(main)
    assert run(build_parser().parse_args) == first == run(main)


@pytest.mark.parametrize("argv", [
    ["sync", "t.txt", "--decimal", "--sigma", "9", "--tau", "4", "--format",
     "sparse", "--verify", "--out", "o"],
    ["recompress", "t.bin", "--level", "3", "--format", "bitmask",
     "--sigma", "4", "--out", "o"],
    ["runs", "--ell", "8", "t.bin", "--period", "2", "--format", "list",
     "--sigma", "2", "--decimal", "--out", "o"],
    ["encode", "v.txt", "--out", "o"],
    ["decode", "--out", "o", "--", "-c.ssb"],
    ["query", "c.ssb", "--ra", "7", "--select=2", "--out", "o"],
    ["verify", "t.bin", "--tau", "8", "--set", "s.ssb", "--sigma", "4",
     "--decimal", "--out", "o"],
    ["bench", "--tau-list", "4,8", "--generate", "64", "--seed", "3",
     "--sigma", "4", "--out", "o"]], ids=COMMANDS)
def test_dispatch_parses_as_the_whole_parser(argv):
    # every option of each command, read by its own parser, gives the
    # namespace that the whole parser gives
    got = cli._parse(argv)
    assert got.command == argv[0]
    assert vars(got) == vars(build_parser().parse_args(argv))


def test_main_calls_the_module_command(monkeypatch, capsys):
    # a cmd_* replaced on the module after the first call is the one called
    assert main(["query", "absent.ssb"]) == 2
    assert capsys.readouterr().err == "error: query needs --rank or --select\n"
    seen = []
    monkeypatch.setattr(cli, "cmd_decode", lambda args: seen.append(args) or 0)
    assert main(["decode", "absent.ssb"]) == 0
    assert [args.input for args in seen] == ["absent.ssb"]
