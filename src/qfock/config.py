"""Run configuration: schema, validation, normalization, and hashing.

A run is described by a plain UTF-8 key/value tree (YAML).  This module
states the schema: keys, types, defaults and the ranges only a
configuration has.  Every rule on the space is a layer's own: once the
space section's schema holds, normalization builds the group model and
checks the cutoff and each word vector with the layers' checks.  One
ConfigError lists all violations.  ``qfock validate`` also builds the
truncated Fock space, so it refuses what a run's build refuses, level
positivity included; only ``run`` checks the scan's stack budget.
Normalization fills every default, so the echoed configuration is
complete and its canonical JSON serialization is a stable input for the
run hash.

The ``tolerances`` section is the only source of the CLI's configured
tolerances: one per gated check (``moments`` and the three modular
identities), each a positive number.  The braid gate's tolerance is
``fock.BRAID_TOLERANCE`` and is not configurable.

Configuration files carry plain floats and ints only; exact-arithmetic
spaces (Fraction entries) are a library feature, not reachable from here.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass

import yaml

from .errors import BuildError, ConfigError
from .fock import TruncatedFock, size_violations
from .hilbert import DeformationMatrix, build_space, leg_label
from .limits import (
    MAX_AMPLIFICATION,
    MAX_AUX_DIM,
    MAX_COMBINATORIAL_LENGTH,
    MAX_REPEATS,
    MAX_UM_LENGTH,
)

__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_TOLERANCES",
    "RunConfig",
    "config_hash",
    "load_config",
    "normalize_config",
]

DEFAULT_SEED = 20240817

DEFAULT_TOLERANCES = {
    "moments": 1e-9,
    "modular_exchange": 1e-10,
    "modular_flow": 1e-11,
    "modular_decomposition": 1e-11,
}

_TOP_KEYS = {"space", "fock", "seed", "output_dir", "tolerances", "experiments"}
_EXPERIMENT_KEYS = {"moments", "modular", "multipliers", "ultra"}


def _is_real(x) -> bool:
    """A finite real number: NaN and infinities are rejected."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


def _is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


@dataclass(frozen=True, eq=False)
class RunConfig:
    """A fully normalized run description."""

    data: dict

    @property
    def seed(self) -> int:
        return self.data["seed"]

    @property
    def n_max(self) -> int:
        return self.data["fock"]["n_max"]

    @property
    def output_dir(self) -> str:
        return self.data["output_dir"]

    def tolerance(self, key: str) -> float:
        return self.data["tolerances"][key]

    def experiment(self, name: str) -> dict:
        return self.data["experiments"][name]

    def setup(self):
        return _build_setup(self.data["space"])

    def fock(self) -> TruncatedFock:
        return TruncatedFock(self.setup(), n_max=self.n_max)


def _build_setup(space):
    """The group model of a normalized space section, built and checked by
    the hilbert layer."""
    deformation = DeformationMatrix.build(space["q"])
    blocks = [
        ("rotation", b["label"], b["lam"]) if b["kind"] == "rotation" else ("fixed", b["label"])
        for b in space["blocks"]
    ]
    return build_space(deformation, blocks)


def config_hash(config: RunConfig) -> str:
    """Hash of the experiment-defining part of the configuration.

    The output directory is excluded: rerunning the same experiment into
    a different folder is the same run.
    """
    payload = {k: v for k, v in config.data.items() if k != "output_dir"}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _parse_yaml(text: str):
    """Safe-load YAML with libyaml when PyYAML was built with it.  A text
    libyaml rejects is parsed again by the pure-Python loader, so parse
    errors keep that loader's wording and marks."""
    if yaml.__with_libyaml__:
        try:
            return yaml.load(text, Loader=yaml.CSafeLoader)
        except yaml.YAMLError:
            pass
    return yaml.load(text, Loader=yaml.SafeLoader)


def load_config(path: str) -> RunConfig:
    """Read, parse, and normalize a configuration file.

    I/O failures propagate as OSError; parse failures carry the line and
    column of the offending construct.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        raw = _parse_yaml(text)
    except yaml.YAMLError as err:
        mark = getattr(err, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"configuration parse error{where}: {err}") from err
    return normalize_config(raw)


def _section(raw, field, keys, violations, optional=False):
    """The mapping ``raw`` with every key outside ``keys`` reported, or None
    when it is not a mapping; an optional section may be absent (None)."""
    if raw is None and optional:
        return {}
    if not isinstance(raw, dict):
        violations.append(f"{field}: must be a mapping")
        return None
    violations.extend(f"{field}.{key}: unknown key" for key in raw if key not in keys)
    return raw


def _int_field(raw, field, key, default, violations, high):
    """Integer ``raw[key]`` in [1, high], ``default`` when absent or reported."""
    value = raw.get(key, default)
    if _is_int(value) and 1 <= value <= high:
        return int(value)
    violations.append(f"{field}.{key}: need an integer in [1, {high}]")
    return default


def _normalize_space(raw, violations):
    """The normalized space section and its setup.  Once the section's
    schema holds, the space is built, and the build's violations are
    reported under ``space:``; the setup is None when either fails."""
    if raw is None:
        violations.append("space: section is required")
        return None, None
    start = len(violations)
    raw = _section(raw, "space", {"blocks", "q"}, violations)
    if raw is None:
        return None, None

    blocks_raw = raw.get("blocks")
    blocks = []
    if not isinstance(blocks_raw, list) or not blocks_raw:
        violations.append("space.blocks: need a nonempty list")
        blocks_raw = []
    for pos, entry in enumerate(blocks_raw):
        if isinstance(entry, str):
            entry = {"kind": entry}
        if not isinstance(entry, dict):
            violations.append(f"space.blocks[{pos}]: must be a mapping or kind name")
            continue
        kind = entry.get("kind")
        if kind not in ("fixed", "rotation"):
            violations.append(
                f"space.blocks[{pos}].kind: expected 'fixed' or 'rotation', got {kind!r}"
            )
            continue
        _section(entry, f"space.blocks[{pos}]", {"kind", "label", "lam"}, violations)
        label = entry.get("label", pos)
        if not (_is_int(label) and label >= 0):
            violations.append(f"space.blocks[{pos}].label: must be a nonnegative integer")
            continue
        block = {"kind": kind, "label": int(label)}
        if kind == "rotation":
            lam = entry.get("lam", 1.0)
            if not (_is_real(lam) and lam >= 1):
                violations.append(f"space.blocks[{pos}].lam: must be a real number >= 1")
                continue
            block["lam"] = float(lam)
        elif "lam" in entry:
            violations.append(f"space.blocks[{pos}]: fixed blocks take no lam")
            continue
        blocks.append(block)

    q_raw = raw.get("q")
    n_labels = max((b["label"] for b in blocks), default=-1) + 1
    q = []
    if not (isinstance(q_raw, list) and q_raw and all(isinstance(r, list) for r in q_raw)):
        violations.append("space.q: need a square matrix as a list of rows")
    else:
        size = len(q_raw)
        if any(len(r) != size for r in q_raw):
            violations.append("space.q: rows must all have the matrix size")
        elif not all(_is_real(x) for r in q_raw for x in r):
            violations.append("space.q: entries must be real numbers")
        else:
            q = [[float(x) for x in r] for r in q_raw]
            if blocks and size != n_labels:
                violations.append(
                    f"space.q: size {size} does not match the {n_labels} block labels"
                )

    space = {"blocks": blocks, "q": q}
    if len(violations) > start:
        return space, None
    try:
        return space, _build_setup(space)
    except BuildError as err:
        violations.extend(f"space: {item}" for item in err.violations)
        return space, None


def _normalize_vectors(field, entries, dim, setup, violations):
    """Real d-vectors, each inside a single block (``leg_label``'s rule,
    checked once the space is built)."""
    out = []
    if not isinstance(entries, list) or not entries:
        violations.append(f"{field}: need a nonempty list of vectors")
        return out
    for j, vec in enumerate(entries):
        if not (isinstance(vec, list) and len(vec) == dim and all(_is_real(x) for x in vec)):
            violations.append(f"{field}[{j}]: need a real vector of length {dim}")
            continue
        vec = [float(x) for x in vec]
        if setup is not None:
            try:
                leg_label(setup, vec)
            except BuildError as err:
                violations.extend(f"{field}[{j}]: {item}" for item in err.violations)
        out.append(vec)
    return out


def _basis_vector(dim: int) -> list:
    return [1.0] + [0.0] * (dim - 1)


def _normalize_moments(raw, dim, setup, n_max, violations):
    raw = _section(raw, "experiments.moments", {"words"}, violations, optional=True)
    if raw is None:
        return {"words": []}
    length_cap = min(MAX_COMBINATORIAL_LENGTH, 2 * n_max)
    words_raw = raw.get("words")
    if words_raw is None:
        words_raw = [
            {"vectors": [_basis_vector(dim) for _ in range(l)]}
            for l in (2, 4)
            if l <= length_cap
        ]
    if not isinstance(words_raw, list) or not words_raw:
        violations.append("experiments.moments.words: need a nonempty list")
        return {"words": []}
    words = []
    for i, word in enumerate(words_raw):
        field = f"experiments.moments.words[{i}]"
        word = _section(word, field, {"vectors"}, violations)
        if word is None:
            continue
        vectors = _normalize_vectors(f"{field}.vectors", word.get("vectors"), dim, setup, violations)
        if len(vectors) > MAX_COMBINATORIAL_LENGTH:
            violations.append(
                f"{field}: word length {len(vectors)} beyond the pairing cap"
                f" {MAX_COMBINATORIAL_LENGTH}"
            )
        elif len(vectors) > 2 * n_max:
            violations.append(
                f"{field}: word length {len(vectors)} needs level {(len(vectors) + 1) // 2},"
                f" beyond cutoff n_max = {n_max}"
            )
        words.append({"vectors": vectors})
    return {"words": words}


def _normalize_modular(raw, violations):
    field = "experiments.modular"
    out = {"times": [0.3, 1.0], "pairs": 5}
    raw = _section(raw, field, out, violations, optional=True)
    if raw is None:
        return out
    times = raw.get("times", out["times"])
    if not (isinstance(times, list) and times and all(_is_real(t) for t in times)):
        violations.append(f"{field}.times: need a nonempty list of real times")
    else:
        out["times"] = [float(t) for t in times]
    out["pairs"] = _int_field(raw, field, "pairs", out["pairs"], violations, MAX_REPEATS)
    return out


def _normalize_multipliers(raw, n_max, violations):
    field = "experiments.multipliers"
    out = {"steps": 20, "amplification": 2, "word_level": 1}
    raw = _section(raw, field, out, violations, optional=True)
    if raw is None:
        return out
    highs = {"steps": MAX_REPEATS, "amplification": MAX_AMPLIFICATION, "word_level": n_max}
    for key, high in highs.items():
        out[key] = _int_field(raw, field, key, out[key], violations, high)
    return out


def _normalize_ultra(raw, dim, setup, n_labels, violations):
    out = {
        "q": 0.5,
        "q_tilde": 0.6,
        "m_list": list(range(2, MAX_AUX_DIM + 1)),
        "vectors": [_basis_vector(dim) for _ in range(4)],
    }
    raw = _section(raw, "experiments.ultra", out, violations, optional=True)
    if raw is None:
        return out
    q = raw.get("q", out["q"])
    if not (_is_real(q) and 0 < q < 1):
        violations.append("experiments.ultra.q: need a real number in (0, 1)")
    else:
        out["q"] = float(q)
    # a scalar shape is checked as the 1x1 matrix of its value
    field = "experiments.ultra.q_tilde"
    qt = raw.get("q_tilde", out["q_tilde"])
    scalar = _is_real(qt)
    rows = [[qt]] if scalar else qt
    if not (isinstance(rows, list) and rows and all(isinstance(r, list) for r in rows)):
        violations.append(f"{field}: need a scalar or a square matrix")
    elif not all(_is_real(x) for r in rows for x in r):
        violations.append(f"{field}: entries must be real numbers")
    else:
        rows = [[float(x) for x in r] for r in rows]
        try:
            DeformationMatrix.build(rows)
        except BuildError as err:
            found = ["scalar shape needs modulus < 1"] if scalar else err.violations
            violations.extend(f"{field}: {item}" for item in found)
        else:
            if not scalar and len(rows) < n_labels:
                # ultra.effective_deformation states this rule too; config
                # loads no upper layer, so it cannot call that one
                violations.append(
                    f"{field}: matrix covers {len(rows)} blocks, the space has {n_labels}"
                )
            else:
                out["q_tilde"] = rows[0][0] if scalar else rows
    m_list = raw.get("m_list", out["m_list"])
    good = (
        isinstance(m_list, list)
        and m_list
        and all(_is_int(m) and 1 <= m <= MAX_AUX_DIM for m in m_list)
        and all(b > a for a, b in zip(m_list, m_list[1:]))
    )
    if not good:
        violations.append(
            f"experiments.ultra.m_list: need strictly increasing integers in [1, {MAX_AUX_DIM}]"
        )
    else:
        out["m_list"] = [int(m) for m in m_list]
    vectors = raw.get("vectors")
    if vectors is not None:
        vectors = _normalize_vectors(
            "experiments.ultra.vectors", vectors, dim, setup, violations
        )
        if len(vectors) > MAX_UM_LENGTH:
            violations.append(
                f"experiments.ultra.vectors: word length {len(vectors)} beyond the cap"
                f" {MAX_UM_LENGTH}"
            )
        out["vectors"] = vectors
    return out


def normalize_config(raw) -> RunConfig:
    """Validate a parsed configuration tree and fill every default.

    Raises ConfigError with the complete list of violations.
    """
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a mapping")
    violations = []
    for key in raw:
        if key not in _TOP_KEYS:
            violations.append(f"{key}: unknown top-level key")

    space, setup = _normalize_space(raw.get("space"), violations)
    blocks = space["blocks"] if space else []
    dim = sum(2 if b["kind"] == "rotation" else 1 for b in blocks)
    n_labels = max((b["label"] for b in blocks), default=-1) + 1

    # the sections below are checked against the default cutoff when the
    # requested one is refused
    fock_raw = _section(raw.get("fock"), "fock", {"n_max"}, violations, optional=True)
    n_max = 3
    if fock_raw is not None:
        n_raw = fock_raw.get("n_max", n_max)
        if not _is_int(n_raw):
            violations.append("fock.n_max: need a positive integer")
        else:
            sizes = size_violations(dim, n_raw)
            violations.extend(f"fock: {item}" for item in sizes)
            n_max = n_max if sizes else int(n_raw)

    seed = raw.get("seed", DEFAULT_SEED)
    if not (_is_int(seed) and seed >= 0):
        violations.append("seed: need a nonnegative integer")
        seed = DEFAULT_SEED

    output_dir = raw.get("output_dir", "reports")
    if not isinstance(output_dir, str) or not output_dir:
        violations.append("output_dir: need a nonempty path string")
        output_dir = "reports"

    tolerances = dict(DEFAULT_TOLERANCES)
    tol_raw = raw.get("tolerances")
    if tol_raw is None:
        tol_raw = {}
    if not isinstance(tol_raw, dict):
        violations.append("tolerances: must be a mapping")
    else:
        for key, value in tol_raw.items():
            if key not in DEFAULT_TOLERANCES:
                violations.append(
                    f"tolerances.{key}: unknown key; known: {sorted(DEFAULT_TOLERANCES)}"
                )
            elif not (_is_real(value) and value > 0):
                violations.append(f"tolerances.{key}: need a positive number")
            else:
                tolerances[key] = float(value)

    exp_raw = raw.get("experiments", {})
    if exp_raw is None:
        exp_raw = {}
    if not isinstance(exp_raw, dict):
        violations.append("experiments: must be a mapping")
        exp_raw = {}
    for key in exp_raw:
        if key not in _EXPERIMENT_KEYS:
            violations.append(
                f"experiments.{key}: unknown experiment; known: {sorted(_EXPERIMENT_KEYS)}"
            )
    experiments = {
        "moments": _normalize_moments(exp_raw.get("moments"), dim, setup, n_max, violations),
        "modular": _normalize_modular(exp_raw.get("modular"), violations),
        "multipliers": _normalize_multipliers(exp_raw.get("multipliers"), n_max, violations),
        "ultra": _normalize_ultra(exp_raw.get("ultra"), dim, setup, n_labels, violations),
    }

    if violations:
        raise ConfigError(violations)

    data = {
        "space": space,
        "fock": {"n_max": n_max},
        "seed": int(seed),
        "output_dir": output_dir,
        "tolerances": tolerances,
        "experiments": experiments,
    }
    return RunConfig(data)
