"""Configuration loading: schema validation, defaults, and hashing."""

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

import qfock
from qfock.config import (
    DEFAULT_SEED,
    ConfigError,
    config_hash,
    load_config,
    normalize_config,
)
from qfock.moments import MomentSpec, checked_moment


def minimal_raw():
    return {"space": {"q": [[0.3]], "blocks": ["fixed"]}}


def test_minimal_config_normalizes_with_defaults():
    config = normalize_config(minimal_raw())
    assert config.seed == DEFAULT_SEED
    assert config.n_max == 3
    assert config.data["space"]["blocks"][0]["kind"] == "fixed"
    assert set(config.data["experiments"]) == {
        "moments",
        "modular",
        "multipliers",
        "ultra",
    }


def test_minimal_config_builds_a_space():
    config = normalize_config(minimal_raw())
    fock = config.fock()
    assert fock.n_max == 3
    assert fock.setup.dim == 1


def test_rotation_block_shorthand_and_mapping_agree():
    base = {
        "space": {
            "q": [[0.3, -0.2], [-0.2, 0.55]],
            "blocks": [{"kind": "rotation", "lam": 2.0}, {"kind": "fixed"}],
        }
    }
    config = normalize_config(base)
    blocks = config.data["space"]["blocks"]
    assert blocks[0] == {"kind": "rotation", "label": 0, "lam": 2.0}
    assert blocks[1] == {"kind": "fixed", "label": 1}


def test_deformation_bound_is_enforced():
    raw = {"space": {"q": [[1.0]], "blocks": ["fixed"]}}
    with pytest.raises(ConfigError, match=r"max\|q_ij\| < 1"):
        normalize_config(raw)


def test_size_budget_quotes_the_requested_cutoff():
    entries = [[0.5 if i == j else 0.0 for j in range(4)] for i in range(4)]
    raw = {
        "space": {"q": entries, "blocks": ["fixed"] * 4},
        "fock": {"n_max": 6},
    }
    with pytest.raises(ConfigError) as excinfo:
        normalize_config(raw)
    text = "\n".join(excinfo.value.violations)
    assert "4^6 = 4096" in text
    assert "beyond the level cap" in text


def test_unknown_keys_are_rejected():
    raw = minimal_raw()
    raw["mystery"] = 1
    with pytest.raises(ConfigError) as excinfo:
        normalize_config(raw)
    text = "\n".join(excinfo.value.violations)
    assert "mystery" in text


def test_violations_are_consolidated():
    raw = {
        "space": {"q": [[0.3]], "blocks": ["fixed"]},
        "seed": -1,
        "fock": {"n_max": 0},
        "output_dir": "",
    }
    with pytest.raises(ConfigError) as excinfo:
        normalize_config(raw)
    assert len(excinfo.value.violations) >= 3


def test_parse_error_reports_line_and_column(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("space:\n  q: [[0.3]\n")
    with pytest.raises(ConfigError, match="parse error"):
        load_config(path)


def test_config_hash_ignores_the_output_directory():
    left = normalize_config({**minimal_raw(), "output_dir": "runs/a"})
    right = normalize_config({**minimal_raw(), "output_dir": "runs/b"})
    assert config_hash(left) == config_hash(right)

    reseeded = normalize_config({**minimal_raw(), "seed": 7})
    assert config_hash(left) != config_hash(reseeded)


def test_moment_words_default_to_short_basis_words():
    config = normalize_config(minimal_raw())
    words = config.experiment("moments")["words"]
    assert sorted(len(word["vectors"]) for word in words) == [2, 4]
    assert all(vec == [1.0] for word in words for vec in word["vectors"])


def test_ultra_defaults_are_self_consistent():
    config = normalize_config(minimal_raw())
    ultra = config.experiment("ultra")
    assert ultra["q"] == 0.5
    assert ultra["q_tilde"] == 0.6
    assert ultra["m_list"] == list(range(2, 11))
    assert len(ultra["vectors"]) == 4


@pytest.mark.parametrize("section", ["fock", "experiments"])
def test_a_null_section_means_the_defaults(section):
    # a YAML section whose only child is commented out parses as null
    assert normalize_config({**minimal_raw(), section: None}).data == (
        normalize_config(minimal_raw()).data
    )


def experiments(**sections):
    return {**minimal_raw(), "experiments": sections}


def two_labels(**sections):
    space = {"q": [[0.3, 0.1], [0.1, 0.2]], "blocks": ["fixed", "fixed"]}
    return {"space": space, "experiments": sections}


def one_label(count):
    return [{"kind": "fixed", "label": 0}] * count


_EMPTY_SPACE_WORDS = [
    f"experiments.moments.words[{w}].vectors[{v}]: need a real vector of length 0"
    for w, length in ((0, 2), (1, 4))
    for v in range(length)
]

# each invalid tree with its complete violation list, in reporting order
INVALID_CONFIGS = {
    "space-missing": ({}, ["space: section is required", *_EMPTY_SPACE_WORDS]),
    "space-not-mapping": (
        {"space": [[0.3]]},
        ["space: must be a mapping", *_EMPTY_SPACE_WORDS],
    ),
    "space-unknown-key": (
        {"space": {**minimal_raw()["space"], "lam": 2.0}},
        ["space.lam: unknown key"],
    ),
    "block-unknown-key": (
        {"space": {"q": [[0.3]], "blocks": [{"kind": "fixed", "colour": 1}]}},
        ["space.blocks[0].colour: unknown key"],
    ),
    "fock-not-mapping": ({**minimal_raw(), "fock": 3}, ["fock: must be a mapping"]),
    "fock-unknown-key": (
        {**minimal_raw(), "fock": {"n_max": 2, "cutoff": 2}},
        ["fock.cutoff: unknown key"],
    ),
    "experiments-not-mapping": (
        {**minimal_raw(), "experiments": ["moments"]},
        ["experiments: must be a mapping"],
    ),
    "experiments-unknown": (
        experiments(averaging={}),
        [
            "experiments.averaging: unknown experiment;"
            " known: ['modular', 'moments', 'multipliers', 'ultra']"
        ],
    ),
    "moments-not-mapping": (
        experiments(moments=[[1.0], [1.0]]),
        ["experiments.moments: must be a mapping"],
    ),
    "moments-unknown-key": (
        experiments(moments={"length": 2}),
        ["experiments.moments.length: unknown key"],
    ),
    "word-not-mapping": (
        experiments(moments={"words": [[[1.0], [1.0]]]}),
        ["experiments.moments.words[0]: must be a mapping"],
    ),
    "word-unknown-key": (
        experiments(moments={"words": [{"vectors": [[1.0], [1.0]], "weight": 1}]}),
        ["experiments.moments.words[0].weight: unknown key"],
    ),
    "modular-not-mapping": (
        experiments(modular="fast"),
        ["experiments.modular: must be a mapping"],
    ),
    "modular-unknown-key-and-empty-times": (
        experiments(modular={"times": [], "pair": 3}),
        [
            "experiments.modular.pair: unknown key",
            "experiments.modular.times: need a nonempty list of real times",
        ],
    ),
    "modular-bad-times-and-pairs": (
        experiments(modular={"times": ["soon"], "pairs": 0}),
        [
            "experiments.modular.times: need a nonempty list of real times",
            "experiments.modular.pairs: need an integer in [1, 1000]",
        ],
    ),
    "modular-pairs-beyond-the-cap": (
        experiments(modular={"pairs": 1001}),
        ["experiments.modular.pairs: need an integer in [1, 1000]"],
    ),
    "multipliers-not-mapping": (
        experiments(multipliers=5),
        ["experiments.multipliers: must be a mapping"],
    ),
    "multipliers-unknown-key": (
        experiments(multipliers={"step": 3}),
        ["experiments.multipliers.step: unknown key"],
    ),
    "multipliers-out-of-range": (
        experiments(multipliers={"steps": 0, "amplification": 5, "word_level": 4}),
        [
            "experiments.multipliers.steps: need an integer in [1, 1000]",
            "experiments.multipliers.amplification: need an integer in [1, 4]",
            "experiments.multipliers.word_level: need an integer in [1, 3]",
        ],
    ),
    "multipliers-steps-beyond-the-cap": (
        experiments(multipliers={"steps": 10**12}),
        ["experiments.multipliers.steps: need an integer in [1, 1000]"],
    ),
    "multipliers-not-integers": (
        experiments(multipliers={"steps": True, "amplification": 0, "word_level": 0}),
        [
            "experiments.multipliers.steps: need an integer in [1, 1000]",
            "experiments.multipliers.amplification: need an integer in [1, 4]",
            "experiments.multipliers.word_level: need an integer in [1, 3]",
        ],
    ),
    "ultra-not-mapping": (experiments(ultra=0.5), ["experiments.ultra: must be a mapping"]),
    "ultra-unknown-key": (
        experiments(ultra={"m": [2, 3]}),
        ["experiments.ultra.m: unknown key"],
    ),
    # each gate's tolerance is a constant of its layer: none is configured
    "tolerances-section": (
        {**minimal_raw(), "tolerances": {"moments": 1e-9}},
        ["tolerances: unknown top-level key"],
    ),
    # NaN and infinities are not real numbers of a configuration
    "rotation-lam-infinite": (
        {"space": {"q": [[0.3]], "blocks": ["fixed", {"kind": "rotation", "lam": math.inf}]}},
        ["space.blocks[1].lam: must be a real number >= 1"],
    ),
    "word-vector-nan": (
        experiments(moments={"words": [{"vectors": [[math.nan], [1.0]]}]}),
        ["experiments.moments.words[0].vectors[0]: need a real vector of length 1"],
    ),
    "modular-times-non-finite": (
        experiments(modular={"times": [math.nan, math.inf]}),
        ["experiments.modular.times: need a nonempty list of real times"],
    ),
    # the space section's schema
    "blocks-empty": (
        {"space": {"q": [[0.3]], "blocks": []}},
        ["space.blocks: need a nonempty list", *_EMPTY_SPACE_WORDS],
    ),
    "block-not-mapping": (
        {"space": {"q": [[0.3]], "blocks": ["fixed", 3]}},
        ["space.blocks[1]: must be a mapping or kind name"],
    ),
    "block-kind-unknown": (
        {"space": {"q": [[0.3]], "blocks": ["fixed", "twisted"]}},
        ["space.blocks[1].kind: expected 'fixed' or 'rotation', got 'twisted'"],
    ),
    "block-label-negative": (
        {"space": {"q": [[0.3]], "blocks": ["fixed", {"kind": "fixed", "label": -1}]}},
        ["space.blocks[1].label: must be a nonnegative integer"],
    ),
    "fixed-block-with-lam": (
        {"space": {"q": [[0.3]], "blocks": ["fixed", {"kind": "fixed", "lam": 2.0}]}},
        ["space.blocks[1]: fixed blocks take no lam"],
    ),
    "q-not-a-matrix": (
        {"space": {"q": 0.3, "blocks": ["fixed"]}},
        ["space.q: need a square matrix as a list of rows"],
    ),
    "q-ragged-rows": (
        {"space": {"q": [[0.3, 0.1], [0.1]], "blocks": ["fixed", "fixed"]}},
        ["space.q: rows must all have the matrix size"],
    ),
    "q-not-real": (
        {"space": {"q": [["x"]], "blocks": ["fixed"]}},
        ["space.q: entries must be real numbers"],
    ),
    "q-size-does-not-match-the-labels": (
        {"space": {"q": [[0.3, 0.1], [0.1, 0.2]], "blocks": ["fixed"]}},
        ["space.q: size 2 does not match the 1 block labels"],
    ),
    "split-scale-not-real": (
        {"space": {**minimal_raw()["space"], "split_scale": "half"}},
        ["space.split_scale: unknown key"],
    ),
    # space rules reached through the hilbert layer's build
    "q-not-symmetric": (
        {"space": {"q": [[0.3, 0.1], [0.2, 0.2]], "blocks": ["fixed", "fixed"]}},
        ["space: deformation matrix must be symmetric"],
    ),
    "q-unbounded": (
        {"space": {"q": [[1.0]], "blocks": ["fixed"]}},
        ["space: deformation entries must satisfy |q| < 1: need max|q_ij| < 1, got 1"],
    ),
    "space-beyond-the-dimension-cap": (
        {"space": {"q": [[0.3]], "blocks": one_label(9)}, "fock": {"n_max": 1}},
        ["space: dimension 9 exceeds the cap 8"],
    ),
    # the cutoff, checked by the fock layer's size rules
    "n-max-not-an-integer": (
        {**minimal_raw(), "fock": {"n_max": 2.5}},
        ["fock.n_max: need a positive integer"],
    ),
    "n-max-zero": (
        {**minimal_raw(), "fock": {"n_max": 0}},
        ["fock: level cutoff must be at least 1, got 0"],
    ),
    "n-max-beyond-the-level-cap": (
        {"space": {"q": [[0.5]], "blocks": one_label(4)}, "fock": {"n_max": 6}},
        [
            "fock: level cutoff 6 beyond the level cap 5",
            "fock: 4^6 = 4096 top-level words beyond the per-level cap 2048;"
            " lower the cutoff or the dimension",
        ],
    ),
    "size-budget": (
        {"space": {"q": [[0.5]], "blocks": one_label(8)}, "fock": {"n_max": 4}},
        [
            "fock: 8^4 = 4096 top-level words beyond the per-level cap 2048;"
            " lower the cutoff or the dimension",
        ],
    ),
    # the budget of a huge cutoff is refused without evaluating dim ** n_max
    "n-max-huge": (
        {"space": {"q": [[0.5]], "blocks": one_label(2)}, "fock": {"n_max": 10**12}},
        [
            "fock: level cutoff 1000000000000 beyond the level cap 5",
            "fock: 2^1000000000000 top-level words beyond the per-level cap 2048;"
            " lower the cutoff or the dimension",
        ],
    ),
    "seed-negative": ({**minimal_raw(), "seed": -1}, ["seed: need a nonnegative integer"]),
    "output-dir-empty": (
        {**minimal_raw(), "output_dir": ""},
        ["output_dir: need a nonempty path string"],
    ),
    # word vectors: their schema, and the hilbert layer's single-block rule
    "moment-words-empty": (
        experiments(moments={"words": []}),
        ["experiments.moments.words: need a nonempty list"],
    ),
    "moment-vectors-empty": (
        experiments(moments={"words": [{"vectors": []}]}),
        ["experiments.moments.words[0].vectors: need a nonempty list of vectors"],
    ),
    "moment-zero-vector": (
        experiments(moments={"words": [{"vectors": [[0.0], [1.0]]}]}),
        ["experiments.moments.words[0].vectors[0]: zero vector has no block label"],
    ),
    "moment-vector-spans-blocks": (
        two_labels(moments={"words": [{"vectors": [[1.0, 1.0], [1.0, 0.0]]}]}),
        [
            "experiments.moments.words[0].vectors[0]: word vector spans blocks [0, 1];"
            " each vector of a word must lie in one block"
        ],
    ),
    "moment-word-beyond-the-pairing-cap": (
        experiments(moments={"words": [{"vectors": [[1.0]] * 10}]}),
        ["experiments.moments.words[0]: word length 10 beyond the pairing cap 8"],
    ),
    "moment-word-beyond-the-cutoff": (
        experiments(moments={"words": [{"vectors": [[1.0]] * 8}]}),
        ["experiments.moments.words[0]: word length 8 needs level 4, beyond cutoff n_max = 3"],
    ),
    "ultra-q-out-of-range": (
        experiments(ultra={"q": 1.0}),
        ["experiments.ultra.q: need a real number in (0, 1)"],
    ),
    "ultra-scalar-shape-unbounded": (
        experiments(ultra={"q_tilde": -1.0}),
        ["experiments.ultra.q_tilde: scalar shape needs modulus < 1"],
    ),
    "ultra-matrix-shape-not-symmetric": (
        experiments(ultra={"q_tilde": [[0.1, 0.2], [0.3, 0.1]]}),
        ["experiments.ultra.q_tilde: deformation matrix must be symmetric"],
    ),
    "ultra-matrix-shape-ragged": (
        experiments(ultra={"q_tilde": [[0.1, 0.2], [0.2]]}),
        [
            "experiments.ultra.q_tilde: deformation matrix must be a nonempty square"
            " list of rows"
        ],
    ),
    "ultra-matrix-shape-not-real": (
        experiments(ultra={"q_tilde": [[0.1, "x"], ["x", 0.1]]}),
        ["experiments.ultra.q_tilde: entries must be real numbers"],
    ),
    "ultra-matrix-shape-too-small": (
        two_labels(ultra={"q_tilde": [[0.1]]}),
        ["experiments.ultra.q_tilde: matrix covers 1 blocks, the space has 2"],
    ),
    "ultra-shape-not-a-matrix": (
        experiments(ultra={"q_tilde": "flat"}),
        ["experiments.ultra.q_tilde: need a scalar or a square matrix"],
    ),
    "ultra-m-list-not-increasing": (
        experiments(ultra={"m_list": [3, 2]}),
        ["experiments.ultra.m_list: need strictly increasing integers in [1, 10]"],
    ),
    "ultra-vectors-beyond-the-cap": (
        experiments(ultra={"vectors": [[1.0]] * 7}),
        ["experiments.ultra.vectors: word length 7 beyond the cap 6"],
    ),
    "ultra-vector-spans-blocks": (
        two_labels(ultra={"vectors": [[0.0, 1.0], [1.0, 1.0]]}),
        [
            "experiments.ultra.vectors[1]: word vector spans blocks [0, 1];"
            " each vector of a word must lie in one block"
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(INVALID_CONFIGS))
def test_invalid_configs_report_exactly_their_violations(name):
    raw, expected = INVALID_CONFIGS[name]
    with pytest.raises(ConfigError) as excinfo:
        normalize_config(raw)
    assert list(excinfo.value.violations) == expected


def test_a_vector_over_two_blocks_of_one_label_is_one_leg():
    # the single-block rule counts labels, as the run's moment check does
    space = {"q": [[0.3]], "blocks": one_label(2)}
    word = {"vectors": [[1.0, 2.0], [1.0, 0.0]]}
    config = normalize_config({"space": space, "experiments": {"moments": {"words": [word]}}})
    assert config.experiment("moments")["words"] == [word]
    spec = MomentSpec.build(config.setup, [np.asarray(v) for v in word["vectors"]])
    checked_moment(spec, config.fock())


CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def hashlib_digests(paths):
    """sha256 of each config's canonical JSON, through OpenSSL's hashlib."""
    digests = []
    for path in paths:
        payload = {k: v for k, v in load_config(path).data.items() if k != "output_dir"}
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        digests.append(hashlib.sha256(canonical.encode("utf-8")).hexdigest())
    return digests


def test_config_hash_is_the_sha256_of_the_canonical_json():
    paths = [os.path.join(CONFIG_DIR, name) for name in sorted(os.listdir(CONFIG_DIR))]
    assert [config_hash(load_config(path)) for path in paths] == hashlib_digests(paths)


def test_config_hash_falls_back_to_hashlib_without_the_builtin_module():
    paths = [os.path.join(CONFIG_DIR, name) for name in sorted(os.listdir(CONFIG_DIR))]
    code = (
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from qfock.config import config_hash, load_config\n"
        "assert 'hashlib' in sys.modules\n"
        f"for path in {paths!r}:\n"
        "    print(config_hash(load_config(path)))\n"
    )
    source = os.path.dirname(os.path.dirname(qfock.__file__))
    child = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": source},
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == hashlib_digests(paths)


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
@pytest.mark.parametrize("name", sorted(os.listdir(CONFIG_DIR)))
def test_libyaml_and_pure_loader_normalize_alike(name):
    path = os.path.join(CONFIG_DIR, name)
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    pure = normalize_config(yaml.load(text, Loader=yaml.SafeLoader)).data
    fast = normalize_config(yaml.load(text, Loader=yaml.CSafeLoader)).data
    assert fast == pure
    assert load_config(path).data == pure


def test_parse_errors_keep_the_pure_loader_message(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("space:\n  q: [[0.3]\n")
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert err.value.violations == [
        "configuration parse error at line 3, column 1: "
        "while parsing a flow sequence\n"
        '  in "<unicode string>", line 2, column 6:\n'
        "      q: [[0.3]\n"
        "         ^\n"
        "expected ',' or ']', but got '<stream end>'\n"
        '  in "<unicode string>", line 3, column 1:\n'
        "    \n"
        "    ^"
    ]
