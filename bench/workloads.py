"""Seeded job decks for the two benchmark workloads (see README.md).

A job is one or more ``qperm`` command lines, run through ``qperm.cli.main``,
or one library call.  A workload is an endless sequence of *decks*: each deck
holds the same job kinds and sizes in the same numbers, and the seed shuffles
the deck and draws what is left free (words, methods, output modes, sizes
within a stratum).  Runs stop on a deck boundary, so every run sees the same
mix whatever its seed, and throughput and percentiles compare across seeds.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("probe-large", "mixed")

# Class representatives of the nonvanishing words of degree <= 4; the seed
# moves them around their orbits to make ``haar --mono`` inputs.
_REPRESENTATIVES = (
    ((1, 1),),
    ((1, 1), (2, 2)),
    ((1, 1), (2, 2), (3, 3)),
    ((1, 1), (2, 2), (1, 1), (2, 2)),
    ((1, 1), (2, 2), (1, 1), (2, 3)),
    ((1, 1), (2, 2), (1, 1), (3, 3)),
    ((1, 1), (2, 2), (1, 3), (2, 4)),
    ((1, 1), (2, 2), (1, 3), (3, 2)),
    ((1, 1), (2, 2), (1, 3), (3, 4)),
    ((1, 1), (2, 2), (3, 3), (4, 4)),
)


@dataclass(frozen=True)
class Job:
    """One unit of closed-loop work and what its output must satisfy.

    ``steps`` are argv lists for ``qperm.cli.main`` with one expected exit
    code each in ``expect``; a library job has no steps and a ``call`` of
    ``(module, function, args)`` inside the ``qperm`` package instead.
    ``valid`` is False for inputs the program must reject with exit 2.
    """

    kind: str
    steps: tuple = ()
    expect: tuple = ()
    call: tuple | None = None
    params: tuple = ()
    valid: bool = True
    files: tuple = ()       # output files the check reads

    def param(self, name):
        return dict(self.params)[name]


class Paths:
    """File locations of a run, all under one work directory.

    ``out`` is emptied after every job; ``inputs`` holds files written once
    before the run; ``missing`` names a directory that never exists."""

    def __init__(self, root):
        root = Path(root)
        self.root = root
        self.inputs = root / "inputs"
        self.out = root / "out"
        self.missing = root / "missing"

    def prepare(self) -> None:
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.out.mkdir(parents=True, exist_ok=True)
        # rows hold bare numbers where [re, im] pairs belong
        (self.inputs / "nested.json").write_text(
            json.dumps({"n": 3, "xi": [[0.5, 0.5, 0.5]] * 3}))
        (self.inputs / "n0.json").write_text(json.dumps({"n": 0, "xi": []}))


# --- probe jobs -------------------------------------------------------------

def _probe_job(n: int, degree: int, method: str, mode: str, paths: Paths) -> Job:
    argv = ["probe", "--n", str(n), "--max-degree", str(degree)]
    if method != "doubling":
        argv += ["--method", method]
    files = ()
    if mode == "out":
        files = (str(paths.out / "report.json"),)
        argv += ["--out", files[0]]
    elif mode == "csv":
        files = (str(paths.out / "moments.csv"),)
        argv += ["--csv", files[0]]
    return Job(kind="probe", steps=(tuple(argv),), expect=(0,),
               params=(("n", n), ("degree", degree), ("method", method),
                       ("mode", mode)),
               files=files)


def probe_large_deck(rng: random.Random, paths: Paths) -> list[Job]:
    mode = rng.choice(("stdout", "out", "csv"))
    return [_probe_job(6, 4, "doubling", mode, paths)]


SMALL_PROBE_CONFIGS = tuple(
    [(4, d, meth) for d in (1, 2, 3, 4) for meth in ("doubling", "fixed_space")]
    + [(5, d, meth) for d in (1, 2, 3) for meth in ("doubling", "fixed_space")])


def _small_probe_jobs(rng: random.Random, paths: Paths) -> list[Job]:
    deck = []
    for n, degree, method in SMALL_PROBE_CONFIGS:
        mode = rng.choice(("stdout", "stdout", "out", "csv"))
        deck.append(_probe_job(n, degree, method, mode, paths))
    # input error: the CSV directory does not exist
    n, degree = rng.choice(((4, 1), (4, 2), (5, 1), (5, 2)))
    bad = str(paths.missing / "moments.csv")
    deck.append(Job(kind="probe-bad-csv",
                    steps=(("probe", "--n", str(n), "--max-degree", str(degree),
                            "--csv", bad),),
                    expect=(2,), params=(("n", n), ("degree", degree)),
                    valid=False))
    return deck


# --- non-probe jobs ---------------------------------------------------------

def random_word(rng: random.Random, n: int) -> tuple:
    """A generator word of degree <= 4 with indices in 1..n.

    Half are images of a class representative under independent row and
    column relabelings, a cyclic rotation and possibly the antipode, so most
    of them are nonzero; the rest are uniform words, mostly zero.  Some get
    an adjacent repeated letter, which the Haar value must ignore."""
    if rng.random() < 0.5:
        rep = rng.choice(_REPRESENTATIVES)
        rows = rng.sample(range(1, n + 1), 4)
        cols = rng.sample(range(1, n + 1), 4)
        word = [(rows[i - 1], cols[j - 1]) for i, j in rep]
        shift = rng.randrange(len(word))
        word = word[shift:] + word[:shift]
        if rng.random() < 0.5:
            word = [(j, i) for i, j in reversed(word)]
    else:
        word = [(rng.randint(1, n), rng.randint(1, n))
                for _ in range(rng.randint(1, 4))]
    if len(word) < 4 and rng.random() < 0.3:
        pos = rng.randrange(len(word))
        word.insert(pos, word[pos])
    return tuple(word)


def _haar_mono_job(rng: random.Random) -> Job:
    n = rng.randint(4, 12)
    word = random_word(rng, n)
    text = ",".join(f"{i}:{j}" for i, j in word)
    return Job(kind="haar-mono", steps=(("haar", "--n", str(n), "--mono", text),),
               expect=(0,), params=(("n", n), ("word", word)))


def _orbitals_job(rng: random.Random, n: int, m: int, model: str) -> Job:
    argv = ["orbitals", "--n", str(n), "--m", str(m)]
    if model == "classical":
        argv += ["--model", "classical"]
    as_json = rng.random() < 0.5
    if as_json:
        argv.append("--json")
    expect = 1 if model == "classical" and m >= 3 else 0
    return Job(kind=f"orbitals-{model}", steps=(tuple(argv),), expect=(expect,),
               params=(("n", n), ("m", m), ("json", as_json)))


def _basis_job(n: int, paths: Paths) -> Job:
    path = str(paths.out / "basis.json")
    return Job(kind="basis", steps=(("basis", "gen", "--n", str(n), "--out", path),
                                    ("basis", "verify", path)),
               expect=(0, 0), params=(("n", n),), files=(path,))


def _non_probe_jobs(rng: random.Random, paths: Paths) -> list[Job]:
    deck = [_haar_mono_job(rng) for _ in range(48)]
    deck += [Job(kind="haar-table", steps=(("haar", "table", "--n", str(n)),),
                 expect=(0,), params=(("n", n),))
             for n in (rng.randint(5, 50) for _ in range(6))]
    deck += [_orbitals_job(rng, n, m, "flat")
             for n, m in itertools.product((5, 6, 7, 8), (3, 4))]
    deck += [_orbitals_job(rng, n, 3, "classical") for n in (3, 4, 5)]
    deck.append(_orbitals_job(rng, rng.randint(3, 5), rng.randint(1, 2), "classical"))
    # one basis size from each pair 5-6, 7-8, ..., 19-20: the n^4 verify
    # loop costs the same in every deck
    deck += [_basis_job(lo + rng.randint(0, 1), paths) for lo in range(5, 21, 2)]
    deck += [Job(kind="fix-moment", call=("haar_exact", "fix_moment", (n, 4)),
                 params=(("n", n),)) for n in range(8, 17)]
    deck += [Job(kind="basis-bad", steps=(("basis", "verify", str(paths.inputs / name)),),
                 expect=(2,), params=(("file", name),), valid=False)
             for name in ("nested.json", "n0.json")]
    return deck


def mixed_deck(rng: random.Random, paths: Paths) -> list[Job]:
    deck = _small_probe_jobs(rng, paths) + _non_probe_jobs(rng, paths)
    rng.shuffle(deck)
    return deck


_DECKS = {"probe-large": probe_large_deck, "mixed": mixed_deck}

# Untimed jobs run before the loop (and in every set-up measurement): one
# small call into each code path the workload uses.
WARMUP = {
    "probe-large": (("probe", "--n", "6", "--max-degree", "3"),),
    "mixed": (("probe", "--n", "4", "--max-degree", "3"),
              ("probe", "--n", "5", "--max-degree", "2", "--method", "fixed_space"),
              ("haar", "--n", "6", "--mono", "1:1,2:2,1:1,2:3"),
              ("haar", "table", "--n", "6"),
              ("orbitals", "--n", "5", "--m", "3"),
              ("orbitals", "--n", "3", "--m", "2", "--model", "classical")),
}


def decks(workload: str, seed: int, paths: Paths):
    """Endless seeded sequence of decks for ``workload``."""
    make = _DECKS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield make(rng, paths)
