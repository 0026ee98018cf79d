"""Fuzzed boundaries: container bytes and command lines through `cli.main`.

Every call runs in process and must end with a documented exit code and
no traceback.  The inputs are bounded (containers of at most 84 bytes, a
64-symbol text, generated texts of at most 64 symbols), and the examples
are derandomized, so both tests run the same cases on every run.
"""

import contextlib
import io
import random
import struct

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from tausync import sparsecodec as sc
from tausync.bitstream import MAGIC
from tausync.cli import main

FUZZ = settings(max_examples=300, deadline=None, derandomize=True,
                database=None, suppress_health_check=[HealthCheck.too_slow])


def _run(argv):
    """(exit code, stderr) of `tausync argv`; argparse's exit counts."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())
    return code, err.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Small input files, and a directory for every --out."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = random.Random(22)
    text = bytes(rng.randrange(4) for _ in range(64))
    paths = {"text": root / "text.bin", "decimal": root / "text.dec",
             "bad_decimal": root / "bad.dec", "ints": root / "ints.txt",
             "list": root / "set.txt", "junk": root / "junk.bin",
             "empty": root / "empty", "container": root / "set.ssb"}
    paths["text"].write_bytes(text)
    paths["decimal"].write_text("".join(f"{i} {v}\n"
                                        for i, v in enumerate(text[:20])))
    paths["bad_decimal"].write_text("0 1\n2 x\n")
    paths["ints"].write_text("0 3 0 0 7 1 0\n")
    paths["list"].write_text("3\n11\n40\n")
    paths["junk"].write_bytes(bytes(rng.randrange(256) for _ in range(40)))
    paths["empty"].write_bytes(b"")
    assert main(["sync", str(paths["text"]), "--sigma", "4", "--tau", "8",
                 "--format", "sparse", "--out", str(paths["container"])]) == 0
    paths = {name: str(path) for name, path in paths.items()}
    paths["missing"] = str(root / "missing")
    paths["directory"] = str(root)
    (root / "out").mkdir()
    paths["out"] = str(root / "out")
    return paths


# -- container bytes ------------------------------------------------------------

def _header(declared, payload, nbits):
    return MAGIC + struct.pack("<QQ", declared, nbits) + payload


@st.composite
def containers(draw):
    """Raw junk, an SSB1 header over random payload bytes, or a valid
    encoding under a declared length that may be wrong."""
    kind = draw(st.sampled_from(["junk", "header", "encoding"]))
    if kind == "junk":
        return draw(st.binary(max_size=84))
    declared = draw(st.integers(0, 4096))
    if kind == "header":
        payload = draw(st.binary(max_size=64))
        whole = 8 * len(payload)
        nbits = draw(st.one_of(st.integers(max(0, whole - 7), whole),
                               st.integers(0, 2 ** 64 - 1)))
        return _header(declared, payload, nbits)
    values = draw(st.lists(st.integers(0, 9), max_size=40))
    enc = sc.senc_encode(values)
    data = enc.stream.to_bytes(enc.decoded_len)
    if len(data) > 84:
        data = data[:84]
    return _header(draw(st.sampled_from([len(values), declared])),
                   data[20:], len(enc.stream))


@FUZZ
@given(data=containers(), j=st.integers(-5, 200), tau=st.integers(1, 32))
@example(data=b"", j=1, tau=8)
@example(data=MAGIC, j=1, tau=8)
@example(data=_header(4096, b"", 0), j=1, tau=8)
@example(data=_header(64, b"\xff" * 8, 64), j=0, tau=1)
def test_containers_fail_with_one_error_line(files, data, j, tau):
    path = files["out"] + "/fuzzed.ssb"
    with open(path, "wb") as fh:
        fh.write(data)
    calls = [["decode", path], ["query", path, "--rank", str(j)],
             ["query", path, "--select", str(j)],
             ["verify", files["text"], "--sigma", "4", "--tau", str(tau),
              "--set", path]]
    for argv in calls:
        code, err = _run(argv)
        assert code in (0, 1, 2), (argv, data, code, err)
        if code == 1:
            prefixes = ("error:", "unreadable set:")
            if argv[0] == "verify":   # a readable set that is not one
                prefixes += ("verification failed:",)
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith(prefixes), (
                argv, data, err)


# -- command lines ---------------------------------------------------------------

# ints in [-5..200], mostly small enough for the 64-symbol text
INTS = st.one_of(st.integers(-5, 40), st.integers(-5, 200)).map(str)
FORMATS = st.sampled_from(["list", "bitmask", "sparse", "bogus"])
TEXTS = (("text",), ("decimal", "--decimal"))
# command: (its inputs, its required flags, its other flags); an input
# is a file and the flags that go with it, and a flag maps to its value
# strategy, or to None if it takes no value
GRAMMAR = {
    "sync": (TEXTS, {"--tau": INTS},
             {"--format": FORMATS, "--verify": None, "--sigma": INTS}),
    "recompress": (TEXTS, {"--level": st.one_of(INTS, st.just(str(10 ** 9)))},
                   {"--format": FORMATS, "--sigma": INTS}),
    "runs": (TEXTS, {"--ell": INTS, "--period": INTS},
             {"--format": FORMATS, "--sigma": INTS}),
    "encode": ((("ints",),), {}, {}),
    "decode": ((("container",),), {}, {}),
    "query": ((("container",),), {}, {"--rank": INTS, "--select": INTS}),
    "verify": (TEXTS, {"--tau": INTS, "--set": "set"}, {"--sigma": INTS}),
    "bench": (TEXTS + ((),),
              {"--tau-list": st.lists(INTS, min_size=1, max_size=4).map(",".join)},
              {"--generate": st.integers(-5, 64).map(str), "--seed": INTS,
               "--sigma": INTS}),
}
JUNK = ("--bogus", "x", "", "-", "--", "--help", "--tau", "1,2", "3",
        "--decimal")


@st.composite
def command_lines(draw, files):
    """A command, mostly with its own input and flags; sometimes with
    another file, a flag left out, or junk tokens."""
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    inputs, required, optional = GRAMMAR[command]
    names = sorted(name for name in files if name != "out")
    if draw(st.integers(0, 9)) < 8:
        name, *flags = draw(st.sampled_from(inputs)) or [None]
    else:
        name, flags = draw(st.sampled_from(names)), []
    argv = [command] + ([] if name is None else [files[name]]) + flags
    sets = st.sampled_from(["list", "container", "junk", "empty", "missing"])
    for flag, value in {**required, **optional}.items():
        if not draw(st.integers(0, 9)) < (9 if flag in required else 4):
            continue
        argv.append(flag)
        if value == "set":
            argv.append(files[draw(sets)])
        elif value is not None:
            argv.append(draw(value))
    if draw(st.booleans()):
        name = draw(st.sampled_from(["a", "b", "no-such-dir/c"]))
        argv += ["--out", f"{files['out']}/{name}"]
    if draw(st.integers(0, 3)) == 0:
        argv += draw(st.lists(st.sampled_from(JUNK), min_size=1, max_size=2))
    return argv


@FUZZ
@given(data=st.data())
def test_command_lines_exit_with_a_documented_code(files, data):
    argv = data.draw(command_lines(files))
    code, err = _run(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
