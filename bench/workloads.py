"""The benchmark's workloads: which lpvol commands one pass runs, built
from the benchmark seed.

Each workload is a closed loop of CLI processes, run one after another.
The seed only generates inputs (weight vectors and the Monte Carlo seed);
the program sees nothing but the generated command lines and files.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

DEFAULT_SEED = 0

# weights of the distinct-weight bodies are drawn uniform on this range
WEIGHT_RANGE = (0.5, 2.0)
# dimensions of the distinct-weight bodies, small enough that one run
# holds several passes (a pass is about 4 s on two cores)
N_P3 = 64
N_P15 = 40


@dataclass(frozen=True)
class Command:
    """One CLI process of a pass.

    key names the command in the reference file, kind selects how its
    output is parsed and checked, keys lists the first-column values of
    the rows it must print (for validate: the check labels), and
    seed_dependent says whether its inputs change with the seed.
    """

    key: str
    kind: str
    argv: tuple
    keys: tuple
    seed_dependent: bool = False


@dataclass(frozen=True)
class Inputs:
    """Everything the seed decides."""

    seed: int
    weights_p3: tuple
    weights_p15: tuple
    mc_seed: int


def _stratified_weights(rng: random.Random, n: int) -> tuple:
    """n distinct weights, one uniform draw in each n-th of WEIGHT_RANGE,
    in random order.  Each weight is uniform on the range, and the set
    spans it evenly, so the work a pass does barely changes with the seed.
    """
    lo, hi = WEIGHT_RANGE
    w = [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]
    rng.shuffle(w)
    return tuple(w)


def make_inputs(seed: int) -> Inputs:
    rng = random.Random(seed)
    w_p3 = _stratified_weights(rng, N_P3)
    w_p15 = _stratified_weights(rng, N_P15)
    return Inputs(seed, w_p3, w_p15, rng.getrandbits(31))


def _write_weights(workdir: str, name: str, weights) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(",".join(repr(w) for w in weights) + "\n")
    return path


MC_LABELS = (
    "disk parallel volume t=1 vs 4pi",
    "p=3 disk parallel volume t=0.5 vs polynomial",
    "ball parallel volume t=0.5 vs closed form",
    "weighted p=1.5 parallel volume t=1 vs polynomial",
)

_NS = (20, 40, 80, 160)
_MAXWELL_NS = (64, 256, 512)


def _unit_tables(inputs, workdir):
    return [
        Command("intrinsic_p3_n60", "intrinsic",
                ("intrinsic", "-p", "3", "-n", "60", "--all"),
                tuple(range(61))),
        Command("intrinsic_p2_n40", "intrinsic",
                ("intrinsic", "-p", "2", "-n", "40", "--all"),
                tuple(range(41))),
        Command("asymptotic_p1.5_bulk", "asymptotic",
                ("asymptotic", "-p", "1.5", "--regime", "bulk",
                 "--alpha", "0.5", "--n", "20,40,80,160"), _NS),
        Command("asymptotic_p2_surface", "asymptotic",
                ("asymptotic", "-p", "2", "--regime", "surface",
                 "--n", "20,40,80,160"), _NS),
        Command("profile_p3", "profile",
                ("profile", "-p", "3", "--grid", "0.05"),
                tuple(min(1.0, k * 0.05) for k in range(21))),
    ]


def _weighted_distinct(inputs, workdir):
    w_p3 = _write_weights(workdir, "weights_p3.txt", inputs.weights_p3)
    w_p15 = _write_weights(workdir, "weights_p15.txt", inputs.weights_p15)
    return [
        Command("weighted_p3", "intrinsic",
                ("intrinsic", "-p", "3", "-n", str(N_P3),
                 "-j", str(N_P3 // 2), "--weights", w_p3),
                (N_P3 // 2,), seed_dependent=True),
        Command("weighted_p1.5", "intrinsic",
                ("intrinsic", "-p", "1.5", "-n", str(N_P15),
                 "-j", str(N_P15 // 2), "--weights", w_p15),
                (N_P15 // 2,), seed_dependent=True),
    ]


def _maxwell_large_n(inputs, workdir):
    return [
        Command("maxwell_p3_bulk", "maxwell",
                ("maxwell", "-p", "3", "--regime", "bulk", "--alpha", "0.5",
                 "--lambda", "2", "--n", "64,256,512"), _MAXWELL_NS),
        Command("maxwell_p1.5_left", "maxwell",
                ("maxwell", "-p", "1.5", "--regime", "left", "--j", "2",
                 "--lambda", "2", "--n", "64,256,512"), _MAXWELL_NS),
    ]


def _mc_oracle(inputs, workdir):
    return [
        Command("validate_steiner", "validate",
                ("validate", "steiner-n2", "steiner-n3",
                 "--seed", str(inputs.mc_seed)), MC_LABELS,
                seed_dependent=True),
    ]


WORKLOADS = {
    "unit_tables": _unit_tables,
    "weighted_distinct": _weighted_distinct,
    "maxwell_large_n": _maxwell_large_n,
    "mc_oracle": _mc_oracle,
}


def build(name: str, inputs: Inputs, workdir: str) -> list:
    """The commands of one pass of workload name, in run order."""
    return WORKLOADS[name](inputs, workdir)
