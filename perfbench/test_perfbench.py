"""Tests of the benchmark's own parts: generators, gate, trace arithmetic.

    python3 -m pytest perfbench -q

Run from the repository root; the validate test starts the qfock CLI from
``src/``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest
import yaml

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from check import check_reports, expected_rows  # noqa: E402
from run import END_TO_END, aggregate_trace, child_env, per_layer_units, predicted_cache_bytes  # noqa: E402
from workloads import WORKLOAD_NAMES, generate  # noqa: E402

SEEDS = (0, 1, 17, 123456)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_same_seed_gives_identical_configs(name):
    for seed in SEEDS:
        assert generate(name, seed) == generate(name, seed)
    assert generate(name, 1).configs != generate(name, 2).configs


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_sizes_do_not_depend_on_seed(name):
    shapes = set()
    for seed in SEEDS:
        workload = generate(name, seed)
        shape = []
        for inv in workload.invocations:
            config = yaml.safe_load(workload.configs[inv.config])
            shape.append((inv.experiment, predicted_cache_bytes(config, inv.experiment)))
            for exp in ("moments", "modular", "multipliers", "ultra"):
                if exp in config["experiments"]:
                    shape.append(expected_rows(config, exp))
            dim = sum(2 if b["kind"] == "rotation" else 1 for b in config["space"]["blocks"])
            shape.append((dim, config["fock"]["n_max"]))
        shapes.add(tuple(shape))
    assert len(shapes) == 1


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_draws_stay_in_range(name):
    for seed in SEEDS:
        for text in generate(name, seed).configs.values():
            config = yaml.safe_load(text)
            q = config["space"]["q"]
            assert all(q[i][j] == q[j][i] for i in range(len(q)) for j in range(len(q)))
            assert max(abs(x) for row in q for x in row) <= 0.6
            assert all(b.get("lam", 1.0) >= 1 for b in config["space"]["blocks"])


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_qfock_validate_accepts_generated_configs(name, tmp_path):
    for seed in SEEDS[:3]:
        for file_name, text in generate(name, seed).configs.items():
            path = tmp_path / f"{seed}-{file_name}"
            path.write_text(text)
            proc = subprocess.run(
                [sys.executable, "-m", "qfock", "validate", "--config", str(path)],
                cwd=ROOT, env=child_env(ROOT), capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
    # averaging is runnable but not gated: see README.md
    assert [w["name"] for w in spec["workloads"]] == ["net", "cap"]


def _write_reports(out_dir, estimate):
    os.makedirs(out_dir)
    with open(os.path.join(out_dir, "manifest.json"), "w") as handle:
        json.dump({"reports": {"multipliers": "multipliers.csv"}}, handle)
    with open(os.path.join(out_dir, "multipliers.csv"), "w") as handle:
        handle.write(f"step,estimate,defect\n1,{estimate},0.5\n# summary\nfinal_estimate,{estimate}\n")


def test_gate_catches_a_wrong_or_missing_value(tmp_path):
    config = {"fock": {"n_max": 3}, "experiments": {"multipliers": {"steps": 1}}}
    ref = {"multipliers": {"rows": [[1.0, 1.25, 0.5]], "summary": {"final_estimate": 1.25}}}
    _write_reports(tmp_path / "ok", 1.25 * (1 + 1e-12))
    assert check_reports(str(tmp_path / "ok"), config, "multipliers", ref)[0] == []
    _write_reports(tmp_path / "off", 1.25 * (1 + 1e-7))
    assert len(check_reports(str(tmp_path / "off"), config, "multipliers", ref)[0]) == 2
    _write_reports(tmp_path / "nan", "nan")
    assert check_reports(str(tmp_path / "nan"), config, "multipliers")[0]
    config["experiments"]["multipliers"]["steps"] = 2
    assert check_reports(str(tmp_path / "ok"), config, "multipliers")[0]
    assert check_reports(str(tmp_path / "absent"), config, "multipliers")[0]


def test_self_time_subtracts_children():
    trace = {
        "spans": [
            ["cli.main_s", 0.0, 10.0, -1],
            ["wick.from_vector_s", 1.0, 4.0, 0],
            ["wick.from_vector_s", 2.0, 3.0, 1],
            ["linalg.op_norm_s", 5.0, 6.0, 0],
        ],
        "counts": {},
    }
    agg = aggregate_trace(trace)
    assert agg["self"]["cli.main_s"] == pytest.approx(6.0)
    assert agg["self"]["wick.from_vector_s"] == pytest.approx(3.0)
    assert agg["inclusive"]["wick.from_vector_s"] == pytest.approx(3.0)
    assert agg["calls"]["wick.from_vector_s"] == 2
