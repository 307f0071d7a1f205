"""Configuration loading: schema validation, defaults, and hashing."""

import math
import os

import pytest
import yaml

from qfock.config import (
    DEFAULT_SEED,
    ConfigError,
    config_hash,
    load_config,
    normalize_config,
)


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
    raw["tolerances"] = {"nonsense": 1e-9}
    with pytest.raises(ConfigError) as excinfo:
        normalize_config(raw)
    text = "\n".join(excinfo.value.violations)
    assert "mystery" in text
    assert "nonsense" in text


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


@pytest.mark.parametrize("section", ["fock", "tolerances", "experiments"])
def test_a_null_section_means_the_defaults(section):
    # a YAML section whose only child is commented out parses as null
    assert normalize_config({**minimal_raw(), section: None}).data == (
        normalize_config(minimal_raw()).data
    )


def test_tolerance_scale_multiplies():
    config = normalize_config(minimal_raw())
    assert config.tolerance("moments", 10.0) == pytest.approx(
        10.0 * config.tolerance("moments")
    )


def experiments(**sections):
    return {**minimal_raw(), "experiments": sections}


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
    "tolerances-not-mapping": (
        {**minimal_raw(), "tolerances": 1e-9},
        ["tolerances: must be a mapping"],
    ),
    # NaN and infinities are not real numbers of a configuration
    "tolerance-infinite": (
        {**minimal_raw(), "tolerances": {"moments": math.inf}},
        ["tolerances.moments: need a positive number"],
    ),
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
}


@pytest.mark.parametrize("name", sorted(INVALID_CONFIGS))
def test_invalid_configs_report_exactly_their_violations(name):
    raw, expected = INVALID_CONFIGS[name]
    with pytest.raises(ConfigError) as excinfo:
        normalize_config(raw)
    assert list(excinfo.value.violations) == expected


CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


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
