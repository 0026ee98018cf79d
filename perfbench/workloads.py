"""Seeded inputs of the three workloads.

The shape of every workload (text count, lengths, alphabets, tau lists,
stretch schedules, query counts) is fixed; the seed only draws the
symbols and the query arguments, so the amount of work barely moves
from seed to seed.  The generators follow `tests/conftest.py`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Seed of the one seed-independent text of cli-small (see FIXED_TEXT).
FIXED_SEED = 20190612

QUERIES = 6000         # select and rank queries per support, each
CLI_QUERIES = 10       # `tausync query --rank` and `--select` calls, each


@dataclass
class Text:
    name: str
    symbols: list[int]
    sigma: int
    taus: list[int]            # library queries; empty: CLI steps only
    cli_tau: int | None        # tau of the CLI steps; None: no CLI steps
    cli_input: str = "raw"     # "raw" bytes, "sigma" (raw + --sigma), "decimal"
    fixed: bool = False        # seed-independent; runs the failing ops
    select_args: list[int] = field(default_factory=list)   # raw draws
    rank_args: list[int] = field(default_factory=list)     # in [0..n]
    cli_select_args: list[int] = field(default_factory=list)
    cli_rank_args: list[int] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.symbols)


@dataclass
class Workload:
    name: str
    texts: list[Text]
    # `tausync verify --set` on the CLI outputs, and
    # `tausync.oracle.verify_sync` on every set in the checks
    verify: bool = False


# -- generators (as in tests/conftest.py) -----------------------------------

def random_symbols(rng: random.Random, n: int, sigma: int) -> list[int]:
    return [rng.randrange(sigma) for _ in range(n)]


def adversarial_block(rng: random.Random, tau: int) -> list[int]:
    """Planted-offset block 0^(2*tau+s-1) 1 0^(tau-s), s drawn in [0..tau)."""
    s = rng.randrange(tau)
    return [0] * (2 * tau + s - 1) + [1] + [0] * (tau - s)


def primitive_word(rng: random.Random, p: int, sigma: int) -> list[int]:
    """A random word of length p whose repetitions have smallest period p."""
    while True:
        w = [rng.randrange(sigma) for _ in range(p)]
        if not any(p % q == 0 and w == w[:q] * (p // q) for q in range(1, p)):
            return w


# Stretch schedule of runs-heavy: (period, length) of each periodic
# stretch, in order; random stretches of RUNS_GAP symbols sit between them
# and an adversarial block for tau = ADV_TAUS[k % len] follows every third.
RUNS_STRETCHES = [(1, 48), (2, 1024), (3, 128), (5, 384), (8, 2048),
                  (13, 160), (21, 768), (34, 272), (2, 96), (1, 1536),
                  (3, 512), (5, 64)]
RUNS_GAP = 96
ADV_TAUS = [8, 16, 32, 64]


def runs_symbols(rng: random.Random, n: int) -> list[int]:
    """sigma=2 text: random stretches alternating with periodic ones."""
    out: list[int] = []
    k = 0
    while len(out) < n:
        out.extend(random_symbols(rng, RUNS_GAP, 2))
        p, length = RUNS_STRETCHES[k % len(RUNS_STRETCHES)]
        w = primitive_word(rng, p, 2)
        out.extend((w * (length // p + 1))[:length])
        if k % 3 == 2:
            out.extend(adversarial_block(rng, ADV_TAUS[(k // 3) % len(ADV_TAUS)]))
        k += 1
    return out[:n]


def _queries(rng: random.Random, text: Text) -> None:
    text.select_args = [rng.randrange(1 << 30) for _ in range(QUERIES)]
    text.rank_args = [rng.randrange(text.n + 1) for _ in range(QUERIES)]
    text.cli_select_args = [rng.randrange(1 << 30) for _ in range(CLI_QUERIES)]
    text.cli_rank_args = [rng.randrange(text.n + 1) for _ in range(CLI_QUERIES)]


# -- workloads ---------------------------------------------------------------

def random_large(seed: int) -> Workload:
    rng = random.Random(f"random-large:{seed}")
    big = Text("random-65536", random_symbols(rng, 1 << 16, 4), 4,
               taus=[8, 16, 64, 512], cli_tau=None)
    cli = Text("random-4096-cli", random_symbols(rng, 1 << 12, 4), 4,
               taus=[], cli_tau=16, cli_input="sigma")
    for t in (big, cli):
        _queries(rng, t)
    return Workload("random-large", [big, cli])


RUNS_N = 1 << 13
RUNS_TAUS = [8, 16, 32, 64, 128]


def runs_heavy(seed: int) -> Workload:
    rng = random.Random(f"runs-heavy:{seed}")
    main = Text("runs-8192", runs_symbols(rng, RUNS_N), 2,
                taus=list(RUNS_TAUS), cli_tau=None)
    # tau=4 sends `sync --format sparse` down the transducer branch at n=2^11
    cli = Text("runs-2048-cli", runs_symbols(rng, 1 << 11), 2,
               taus=[], cli_tau=4, cli_input="sigma")
    for t in (main, cli):
        _queries(rng, t)
    return Workload("runs-heavy", [main, cli])


# (n, sigma, how the CLI reads it, CLI tau) of each seeded cli-small text
CLI_SMALL = [(512, 256, "raw", 2), (1024, 4, "decimal", 4),
             (2048, 2, "sigma", 16), (4096, 16, "decimal", 8),
             (1024, 16, "sigma", 64), (2048, 256, "raw", 4)]
CLI_SMALL_TAUS = [2, 4, 16, 64]
# Seed-independent text: `decode` and `verify --set` on its bitmask
# container fail on every run (the container holds a raw mask, both
# commands parse it as a sparse encoding).
FIXED_TEXT = (1024, 256, "raw", 64)


def cli_small(seed: int) -> Workload:
    rng = random.Random(f"cli-small:{seed}")
    texts = []
    for i, (n, sigma, how, tau) in enumerate(CLI_SMALL):
        texts.append(Text(f"small-{i}-{n}-s{sigma}",
                          random_symbols(rng, n, sigma), sigma,
                          taus=list(CLI_SMALL_TAUS), cli_tau=tau,
                          cli_input=how))
    n, sigma, how, tau = FIXED_TEXT
    fixed = Text(f"fixed-{n}-s{sigma}",
                 random_symbols(random.Random(FIXED_SEED), n, sigma), sigma,
                 taus=list(CLI_SMALL_TAUS), cli_tau=tau, cli_input=how,
                 fixed=True)
    texts.append(fixed)
    for t in texts:
        _queries(rng, t)
    return Workload("cli-small", texts, verify=True)


WORKLOADS = {"random-large": random_large, "runs-heavy": runs_heavy,
             "cli-small": cli_small}
