"""The benchmark's workloads: seeded, unbounded streams of cliffsim CLI jobs.

A workload is a cycle of job makers.  Job ``i`` of a stream is made by
maker ``i % len(cycle)`` from an RNG seeded with (workload, seed, i) alone,
so the same workload seed always gives the same job list, and a run that
stops early still ran a prefix of it.  The program sees only the argv.

The runner stops on whole cycles.  Where a cycle mixes commands of
different cost, its length is odd and not a multiple of five, so no
boundary between two commands' time clusters falls on the 50th or the
90th percentile of job time.  The two gqft-n4 commands cost the same (one
dense transform per theta each), so that workload simply alternates.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

# The CLI's default theta grid for verify-gqft / gqft-distance.
GQFT_THETAS = (0.01, 0.1, 0.5, 1.0, 2.0)


@dataclass(frozen=True)
class Job:
    index: int
    argv: tuple[str, ...]

    @property
    def command(self) -> str:
        return self.argv[0]


Maker = Callable[[random.Random], list[str]]


def _seed(rng: random.Random) -> list[str]:
    return ["--seed", str(rng.randrange(2 ** 32))]


def _gqft(command: str) -> Maker:
    def make(rng):
        thetas = ",".join(repr(t) for t in rng.sample(GQFT_THETAS, 2))
        return [command, "--n", "4", "--trials", "1", "--thetas", thetas, *_seed(rng)]
    return make


# train-cqp job seeds come from range(1000); every one was run at these
# settings.  For n=1, four of them end 60 iterations below the 0.5 fidelity
# floor (244: 0.446, 583: 0.468, 819: 0.302, 850: 0.356), where
# train-converged fails as designed because plain gradient ascent needs more
# steps there; n=1 jobs skip them.  The rest pass both training checks, with
# final fidelity at least 0.51 (n=1) and 0.81 (n=2).
TRAIN_SEEDS = {1: [s for s in range(1000) if s not in (244, 583, 819, 850)],
               2: list(range(1000))}


def _train(n: int) -> Maker:
    def make(rng):
        return ["train-cqp", "--n", str(n), "--iterations", "60",
                "--require-fidelity", "0.5", "--seed", str(rng.choice(TRAIN_SEEDS[n]))]
    return make


def _fixed(*argv: str) -> Maker:
    return lambda rng: [*argv, *_seed(rng)]


# swap-test's swap-concentration check allows |est^2 - exact^2| up to
# 8*sqrt(p(1-p)/shots), but est^2 - exact^2 = 2*(zeros/shots - p), so that is
# a 4-sigma test: it fails on correct output for about 1 seed in 3,600.  These
# are the 11 such seeds in range(40000), all of which were run; swap-test jobs
# skip them.
SWAP_FALSE_ALARMS = (2427, 2908, 9282, 17748, 18250, 24362, 28421, 30933, 33062,
                     36180, 36242)
SWAP_SEEDS = [s for s in range(40000) if s not in SWAP_FALSE_ALARMS]


def _swap(rng):
    return ["swap-test", "--n", "4", "--seed", str(rng.choice(SWAP_SEEDS))]


def _decompose(rng):
    theta1, theta2 = rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0)
    return ["decompose", "--theta1", repr(theta1), "--theta2", repr(theta2), *_seed(rng)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cycle: tuple[Maker, ...]
    pass_jobs: int  # jobs per traced/untraced pass; a whole number of cycles

    def job(self, seed: int, index: int) -> Job:
        rng = random.Random(f"{self.name}/{seed}/{index}")
        return Job(index, tuple(self.cycle[index % len(self.cycle)](rng)))


WORKLOADS = {w.name: w for w in (
    Workload(
        "gqft-n4",
        "d=16 eigensolves dominate, and 94% of them repeat an input already solved in the same job",
        (_gqft("verify-gqft"), _gqft("gqft-distance")),
        pass_jobs=4,
    ),
    Workload(
        "cqp-train",
        "thousands of d=2/4 exponentials per job; per-call overhead dominates",
        (_train(1), _train(1), _train(2)),
        pass_jobs=6,
    ),
    Workload(
        "light-checks",
        "all other commands, no d=16 path; CLI, counting and report cost show",
        (_fixed("verify-basis", "--n", "3"),
         _fixed("omega-count", "--n", "3"),
         _fixed("trotter-sweep", "--n", "2", "--terms", "15"),
         _swap,
         _fixed("equivalence", "--n", "3", "--trials", "5"),
         _decompose,
         _decompose),
        pass_jobs=21,
    ),
)}
