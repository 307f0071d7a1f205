"""Seeded workload generators for the qfock benchmark.

A workload is a list of generated YAML configurations plus a fixed list of
CLI invocations over them.  Sizes are fixed per workload; the seed only
varies entries (the deformation matrix Q, rotation parameters, block kinds
and order, word vectors, averaging parameters), so the amount of work a
run does does not depend on the seed.

Every draw comes from ``random.Random`` seeded with a string, which is
stable across Python versions, and every value is rounded to four
decimals, so the same seed gives byte-identical files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import yaml

WORKLOAD_NAMES = ("net", "cap", "averaging")

# largest |q_ij| drawn: well inside max|q| < 1, so every level form stays
# strictly positive at the cutoffs used here
Q_PEAK = 0.6

# net: full_run-sized mixed space; the step count is reduced from the
# shipped config's 20 so one invocation fits the run length (see README)
NET_STEPS = 3
NET_AMPLIFICATION = 2


@dataclass(frozen=True)
class Invocation:
    """One `qfock run <experiment>` call on one generated config."""

    experiment: str
    config: str  # file name of the generated config


@dataclass(frozen=True)
class Workload:
    name: str
    configs: dict  # file name -> YAML text
    invocations: tuple
    setup_config: str  # config `qfock run fock` is timed on


def _round(x: float) -> float:
    return round(x, 4)


def _symmetric(rng: random.Random, size: int, peak: float) -> list:
    out = [[0.0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            out[i][j] = out[j][i] = _round(rng.uniform(-peak, peak))
    return out


def _blocks(rng: random.Random, kinds: list) -> list:
    rng.shuffle(kinds)
    out = []
    for kind in kinds:
        if kind == "rotation":
            out.append({"kind": "rotation", "lam": _round(rng.uniform(1.2, 3.0))})
        else:
            out.append({"kind": "fixed"})
    return out


def _spans(blocks: list) -> list:
    spans, start = [], 0
    for block in blocks:
        width = 2 if block["kind"] == "rotation" else 1
        spans.append((start, start + width))
        start += width
    return spans


def _leg(rng: random.Random, blocks: list, label: int) -> list:
    """Real vector supported on one block, with no zero entry there."""
    spans = _spans(blocks)
    vec = [0.0] * spans[-1][1]
    a, b = spans[label]
    for i in range(a, b):
        x = rng.uniform(0.3, 1.0)
        vec[i] = _round(x if rng.random() < 0.5 else -x)
    return vec


def _paired_word(rng: random.Random, blocks: list, length: int, pairs_on=None) -> list:
    """Word of even length whose legs come in identical pairs.

    Equal legs pair to their squared norm, which is positive in the
    deformed geometry, so the pairing that matches the copies is nonzero
    and the moment sum is not identically zero.  ``pairs_on`` fixes the
    block of each pair and keeps the copies adjacent, so which pairings
    vanish (and hence the enumeration work) does not depend on the seed;
    otherwise blocks are drawn and the legs shuffled.
    """
    if pairs_on is None:
        pairs_on = [rng.randrange(len(blocks)) for _ in range(length // 2)]
        shuffle = True
    else:
        shuffle = False
    legs = []
    for label in pairs_on:
        leg = _leg(rng, blocks, label)
        legs += [leg, list(leg)]
    if shuffle:
        rng.shuffle(legs)
    return legs


def _dump(data: dict, comment: str) -> str:
    return f"# {comment}\n" + yaml.safe_dump(data, sort_keys=False, default_flow_style=None)


def _net(seed: int) -> Workload:
    rng = random.Random(f"net:{seed}")
    blocks = _blocks(rng, ["rotation", "fixed"])
    data = {
        "space": {"blocks": blocks, "q": _symmetric(rng, 2, Q_PEAK)},
        "fock": {"n_max": 3},
        "experiments": {
            "moments": {
                "words": [
                    {"vectors": _paired_word(rng, blocks, 2)},
                    {"vectors": _paired_word(rng, blocks, 4)},
                ]
            },
            "modular": {"pairs": 5, "times": [0.3, 1.0]},
            "multipliers": {
                "steps": NET_STEPS,
                "amplification": NET_AMPLIFICATION,
                "word_level": 1,
            },
            "ultra": {
                "q": _round(rng.uniform(0.3, 0.7)),
                "q_tilde": _round(rng.uniform(-0.7, 0.7)),
                "m_list": list(range(2, 9)),
                "vectors": _paired_word(rng, blocks, 4),
            },
        },
    }
    text = _dump(data, f"net workload, seed {seed}: dim 3, n_max 3, total_dim 40")
    return Workload(
        "net", {"net.yaml": text}, (Invocation("all", "net.yaml"),), "net.yaml"
    )


def _cap(seed: int) -> Workload:
    rng = random.Random(f"cap:{seed}")
    rotations = rng.randrange(3)
    blocks = _blocks(rng, ["rotation"] * rotations + ["fixed"] * (5 - 2 * rotations))
    data = {
        "space": {"blocks": blocks, "q": _symmetric(rng, len(blocks), Q_PEAK)},
        "fock": {"n_max": 4},
        "experiments": {
            "moments": {
                "words": [
                    {"vectors": _paired_word(rng, blocks, 8)},
                    {"vectors": _paired_word(rng, blocks, 4)},
                ]
            },
            # the CLI defaults, written out so row counts follow from the file
            "modular": {"pairs": 5, "times": [0.3, 1.0]},
        },
    }
    text = _dump(data, f"cap workload, seed {seed}: dim 5, n_max 4, total_dim 781")
    return Workload(
        "cap",
        {"cap.yaml": text},
        (Invocation("moments", "cap.yaml"), Invocation("modular", "cap.yaml")),
        "cap.yaml",
    )


def _averaging(seed: int) -> Workload:
    rng = random.Random(f"averaging:{seed}")
    m_list = list(range(2, 11))
    blocks = _blocks(rng, ["rotation", "fixed"])
    first = rng.randrange(2)
    matrix = {
        "space": {"blocks": blocks, "q": _symmetric(rng, 2, Q_PEAK)},
        "fock": {"n_max": 3},
        "experiments": {
            "ultra": {
                "q": _round(rng.uniform(0.3, 0.7)),
                "q_tilde": _symmetric(rng, 3, 0.7),
                "m_list": m_list,
                "vectors": _paired_word(rng, blocks, 6, [first, 1 - first, 1 - first]),
            }
        },
    }
    blocks = _blocks(rng, ["rotation"])
    scalar = {
        "space": {"blocks": blocks, "q": _symmetric(rng, 1, Q_PEAK)},
        "fock": {"n_max": 3},
        "experiments": {
            "ultra": {
                "q": _round(rng.uniform(0.3, 0.7)),
                "q_tilde": _round(rng.uniform(-0.7, 0.7)),
                "m_list": m_list,
                "vectors": _paired_word(rng, blocks, 6),
            }
        },
    }
    configs = {
        "matrix.yaml": _dump(matrix, f"averaging workload, seed {seed}: matrix shape, 2 blocks"),
        "scalar.yaml": _dump(scalar, f"averaging workload, seed {seed}: scalar shape, 1 block"),
    }
    return Workload(
        "averaging",
        configs,
        (Invocation("ultra", "scalar.yaml"), Invocation("ultra", "matrix.yaml")),
        "matrix.yaml",
    )


_GENERATORS = {"net": _net, "cap": _cap, "averaging": _averaging}


def generate(name: str, seed: int) -> Workload:
    """The workload's configs and invocations for one seed."""
    if name not in _GENERATORS:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOAD_NAMES)}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return _GENERATORS[name](seed)
