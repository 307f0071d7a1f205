"""Command line driver: exit codes, report files, and determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest
import yaml

import qfock
from qfock.cli import _strict, main
from qfock.config import load_config

MINIMAL = {"space": {"q": [[0.3]], "blocks": ["fixed"]}}

UNIFORM_MOMENTS = {
    "space": {"q": [[0.3]], "blocks": ["fixed"]},
    "experiments": {
        "moments": {
            "words": [
                {"vectors": [[1.0], [1.0]]},
                {"vectors": [[1.0], [1.0], [1.0], [1.0]]},
            ]
        }
    },
}

MIXED = {
    "space": {
        "q": [[0.3, -0.2], [-0.2, 0.55]],
        "blocks": [{"kind": "rotation", "lam": 2.0}, {"kind": "fixed"}],
    },
    "fock": {"n_max": 3},
    "experiments": {
        "modular": {"times": [0.3, 1.0], "pairs": 3},
        "multipliers": {"steps": 5},
        "ultra": {"m_list": [2, 3, 4, 5]},
    },
}


def write_config(tmp_path, raw, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return str(path)


def read_rows(path):
    lines = path.read_text().splitlines()
    cut = lines.index("# summary")
    header = lines[0].split(",")
    body = [line.split(",") for line in lines[1:cut]]
    summary = dict(line.split(",", 1) for line in lines[cut + 1 :])
    return header, body, summary


def test_validate_accepts_the_minimal_tracial_config(tmp_path, capsys):
    path = write_config(tmp_path, MINIMAL)
    assert main(["validate", "--config", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("valid")
    echoed = yaml.safe_load(out.split("\n", 1)[1])
    assert echoed["space"]["q"] == [[0.3]]
    assert echoed["seed"] == 20240817


def test_validate_rejects_an_unbounded_deformation(tmp_path, capsys):
    path = write_config(tmp_path, {"space": {"q": [[1.2]], "blocks": ["fixed"]}})
    assert main(["validate", "--config", path]) == 1
    err = capsys.readouterr().err
    assert "invalid configuration:" in err
    assert "max|q_ij| < 1" in err


def test_validate_refuses_a_space_whose_symmetrizer_loses_positivity(tmp_path, capsys):
    # |q| < 1 holds, but P(2) = 1 + q is below the build's positivity floor
    path = write_config(tmp_path, {"space": {"q": [[-0.999999999]], "blocks": ["fixed"]}})
    assert main(["validate", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("precondition failure:")
    assert "level 2 symmetrizer lost strict positivity" in err


def test_validate_reports_the_size_budget_with_the_requested_cutoff(tmp_path, capsys):
    entries = [[0.5 if i == j else 0.0 for j in range(4)] for i in range(4)]
    raw = {"space": {"q": entries, "blocks": ["fixed"] * 4}, "fock": {"n_max": 6}}
    path = write_config(tmp_path, raw)
    assert main(["validate", "--config", path]) == 1
    err = capsys.readouterr().err
    assert "4^6 = 4096" in err


def test_oversized_multipliers_run_fails_the_stack_budget(tmp_path, capsys):
    # dim 6, n_max 4: total dimension 1555, a 60 GB realization stack
    entries = [[0.3 if i == j else 0.0 for j in range(6)] for i in range(6)]
    raw = {"space": {"q": entries, "blocks": ["fixed"] * 6}, "fock": {"n_max": 4}}
    path = write_config(tmp_path, raw)
    out_dir = tmp_path / "report"
    assert main(["run", "multipliers", "--config", path, "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("precondition failure:")
    assert "16*1555^3 = 60160462000 bytes, over the budget" in err
    assert not (out_dir / "multipliers.csv").exists()
    # run all checks the budget before its first experiment writes a report
    assert main(["run", "all", "--config", path, "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("precondition failure:")
    assert "16*1555^3 = 60160462000 bytes, over the budget" in err
    assert list(out_dir.glob("*.csv")) == []


def test_validate_rejects_a_moment_word_labels_key(tmp_path, capsys):
    # a word's labels are read off its vectors' blocks, never configured
    word = {"vectors": [[1.0], [1.0]], "labels": [0, 0]}
    raw = {**MINIMAL, "experiments": {"moments": {"words": [word]}}}
    path = write_config(tmp_path, raw)
    assert main(["validate", "--config", path]) == 1
    assert "experiments.moments.words[0].labels: unknown key" in capsys.readouterr().err


def test_negative_seed_exits_with_code_one(tmp_path, capsys):
    path = write_config(tmp_path, MINIMAL)
    out_dir = tmp_path / "out"
    code = main(["run", "fock", "--config", path, "--out", str(out_dir), "--seed", "-1"])
    assert code == 1
    assert "seed must be nonnegative, got -1" in capsys.readouterr().err
    assert not out_dir.exists()


# usage errors exit 1 like configuration errors: 2 is an invariant failure
@pytest.mark.parametrize(
    "args, message",
    [
        (["validate"], "the following arguments are required: --config"),
        (
            ["run", "everything", "--config", "x.yaml"],
            "argument experiment: invalid choice: 'everything'",
        ),
        (
            ["run", "fock", "--config", "x.yaml", "--seed", "x"],
            "argument --seed: invalid int value: 'x'",
        ),
        (
            ["run", "fock", "--config", "x.yaml", "--tolerance-scale", "2"],
            "unrecognized arguments: --tolerance-scale 2",
        ),
    ],
    ids=["missing-config", "unknown-experiment", "non-integer-seed", "tolerance-scale"],
)
def test_usage_errors_exit_with_code_one(capsys, args, message):
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: qfock")
    assert f": error: {message}" in err


def test_help_exits_with_code_zero(capsys):
    assert main(["run", "--help"]) == 0
    assert "--tolerance-scale" not in capsys.readouterr().out


def test_yaml_parse_errors_exit_with_code_one(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("space:\n  q: [[0.3]\n")
    assert main(["validate", "--config", str(path)]) == 1
    assert "parse error" in capsys.readouterr().err


def test_missing_config_file_exits_with_code_three(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "absent.yaml")]) == 3
    assert "i/o failure" in capsys.readouterr().err


def test_run_moments_reports_both_evaluation_routes(tmp_path, capsys):
    path = write_config(tmp_path, UNIFORM_MOMENTS)
    out_dir = tmp_path / "report"
    assert main(["run", "moments", "--config", path, "--out", str(out_dir)]) == 0
    capsys.readouterr()

    header, body, summary = read_rows(out_dir / "moments.csv")
    assert header == [
        "word",
        "length",
        "pairing_re",
        "pairing_im",
        "matrix_re",
        "matrix_im",
        "abs_diff",
    ]
    # the length-4 moment of a single letter is 2 + q on both routes
    quartic = [row for row in body if row[1] == "4"]
    assert quartic and quartic[0][2] == "2.3" and quartic[0][4] == "2.3"
    assert float(summary["max_abs_diff"]) <= 1e-9
    assert len(summary["config_hash"]) == 64

    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["reports"] == {"moments": "moments.csv"}
    assert list(manifest["experiment_seconds"]) == ["moments"]
    assert manifest["seed"] == 20240817


def test_repeated_runs_are_byte_identical(tmp_path, capsys):
    path = write_config(tmp_path, MIXED)
    for label in ("a", "b"):
        code = main(["run", "all", "--config", path, "--out", str(tmp_path / label)])
        assert code == 0
    capsys.readouterr()
    for name in ("fock", "moments", "modular", "multipliers", "ultra"):
        left = (tmp_path / "a" / f"{name}.csv").read_bytes()
        right = (tmp_path / "b" / f"{name}.csv").read_bytes()
        assert left == right
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    names = ["fock", "modular", "moments", "multipliers", "ultra"]
    assert sorted(manifest["reports"]) == names
    assert sorted(manifest["experiment_seconds"]) == names
    seconds = manifest["experiment_seconds"].values()
    assert all(0 <= value <= manifest["wall_time_seconds"] for value in seconds)


def test_run_all_reports_carry_their_documented_headers(tmp_path, capsys):
    path = write_config(tmp_path, MIXED)
    assert main(["run", "all", "--config", path, "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    headers = {
        "fock": "level,dim,min_p_eigenvalue,braid_residual",
        "moments": "word,length,pairing_re,pairing_im,matrix_re,matrix_im,abs_diff",
        "modular": "check,parameter,residual",
        "multipliers": "step,time,length_cut,rank_index,amplification,estimate,defect,majorant",
        "ultra": "m,value_re,value_im,target_re,target_im,abs_error",
    }
    for name, header in headers.items():
        lines = (tmp_path / "out" / f"{name}.csv").read_text().splitlines()
        assert lines[0] == header, name


def test_single_experiment_matches_the_combined_run(tmp_path, capsys):
    path = write_config(tmp_path, MIXED)
    assert main(["run", "all", "--config", path, "--out", str(tmp_path / "all")]) == 0
    assert main(["run", "modular", "--config", path, "--out", str(tmp_path / "one")]) == 0
    capsys.readouterr()
    combined = (tmp_path / "all" / "modular.csv").read_bytes()
    alone = (tmp_path / "one" / "modular.csv").read_bytes()
    assert combined == alone
    for label in ("all", "one"):
        manifest = json.loads((tmp_path / label / "manifest.json").read_text())
        assert manifest["peak_rss_mb"] > 0
        cache = manifest["wick_cache"]
        assert cache["entries"] > 0
        # 16-byte values and 8-byte indices of a few entries per word, far
        # below one dense 40 x 40 complex matrix per word
        assert 0 < cache["bytes"] < cache["entries"] * 16 * 40**2


def test_seed_override_changes_the_manifest_and_the_hash(tmp_path, capsys):
    path = write_config(tmp_path, MINIMAL)
    assert main(["run", "fock", "--config", path, "--out", str(tmp_path / "x")]) == 0
    assert main(
        ["run", "fock", "--config", path, "--out", str(tmp_path / "y"), "--seed", "7"]
    ) == 0
    capsys.readouterr()
    first = json.loads((tmp_path / "x" / "manifest.json").read_text())
    second = json.loads((tmp_path / "y" / "manifest.json").read_text())
    assert first["seed"] == 20240817
    assert second["seed"] == 7
    assert first["config_hash"] != second["config_hash"]


def test_manifest_names_the_source_version_without_installed_metadata(tmp_path, capsys):
    # the version is the package's own string: no metadata lookup, and no
    # scipy version, since a run does not load scipy
    path = write_config(tmp_path, MINIMAL)
    assert main(["run", "fock", "--config", path, "--out", str(tmp_path / "x")]) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "x" / "manifest.json").read_text())
    assert manifest["versions"]["qfock"] == qfock.__version__
    assert "scipy" not in manifest["versions"]
    # run fock never loads the Wick layer, yet the manifest keeps its cache
    assert manifest["wick_cache"] == {"entries": 0, "bytes": 0}


def tight_modular_config(tmp_path):
    # the level-1 decomposition residual on a rotation block is a fixed
    # nonzero roundoff, so an absurd tolerance must trip the invariant
    raw = {**MIXED, "tolerances": {"modular_decomposition": 1e-30}}
    return write_config(tmp_path, raw)


def test_invariant_violations_exit_with_replay_data(tmp_path, capsys):
    path = tight_modular_config(tmp_path)
    code = main(["run", "modular", "--config", path, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "invariant violated: modular decomposition identity" in err
    replay_line = [line for line in err.splitlines() if line.startswith("replay:")]
    replay = json.loads(replay_line[0].removeprefix("replay: "))
    assert replay["check"] == "decomposition"
    assert replay["residual"] > 0
    assert "seed" in replay and "space" in replay


def test_moment_disagreement_exits_with_replay_data(tmp_path, capsys, monkeypatch):
    import qfock.moments

    oracle = qfock.moments.moment_matrix
    monkeypatch.setattr(
        qfock.moments, "moment_matrix", lambda spec, fock: oracle(spec, fock) + 1
    )
    path = write_config(tmp_path, UNIFORM_MOMENTS)
    code = main(["run", "moments", "--config", path, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "invariant violated: moment dual-path agreement" in err
    replay_line = [line for line in err.splitlines() if line.startswith("replay:")]
    replay = json.loads(replay_line[0].removeprefix("replay: "))
    assert replay["space"]["q"] == [[0.3]]
    assert replay["word"] == {"vectors": [[1.0], [1.0]]}
    assert replay["gap"] == pytest.approx(1.0)
    assert replay["tolerance"] == 1e-9
    assert not (tmp_path / "out" / "moments.csv").exists()


# a NaN residual exceeds no tolerance by comparison, yet must fail its gate
@pytest.mark.parametrize(
    "experiment, module, attr, invariant",
    [
        ("moments", "qfock.moments", "moment_matrix", "moment dual-path agreement"),
        ("modular", "qfock.modular", "kms_residual", "modular exchange identity"),
        ("modular", "qfock.modular.ModularData", "flow_residual", "modular flow identity"),
        ("multipliers", "qfock.multipliers", "net_pointwise_defect", "net defect finiteness"),
    ],
)
def test_a_nan_residual_exits_with_replay_data(
    tmp_path, capsys, monkeypatch, experiment, module, attr, invariant
):
    monkeypatch.setattr(f"{module}.{attr}", lambda *args, **kwargs: float("nan"))
    path = write_config(tmp_path, MIXED)
    code = main(["run", experiment, "--config", path, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"invariant violated: {invariant}" in err
    assert any(line.startswith("replay: ") for line in err.splitlines())
    assert not (tmp_path / "out" / f"{experiment}.csv").exists()


def test_an_infinite_net_defect_exits_with_replay_data(tmp_path, capsys, monkeypatch):
    # the net defect's gate is finiteness: an overflow fails it as NaN does
    monkeypatch.setattr("qfock.multipliers.net_pointwise_defect", lambda *a, **k: float("inf"))
    path = write_config(tmp_path, MIXED)
    code = main(["run", "multipliers", "--config", path, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "invariant violated: net defect finiteness" in err
    replay_line = [line for line in err.splitlines() if line.startswith("replay:")]
    replay = json.loads(replay_line[0].removeprefix("replay: "))
    assert (replay["step"], replay["defect"]) == (1, "inf")
    assert not (tmp_path / "out" / "multipliers.csv").exists()


def strict_replay(err):
    """The replay line of ``err`` read as strict JSON: a bare NaN,
    Infinity or -Infinity token raises."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    line = next(line for line in err.splitlines() if line.startswith("replay: "))
    return json.loads(line.removeprefix("replay: "), parse_constant=refuse)


@pytest.mark.parametrize(
    "experiment, target, value, field",
    [
        ("modular", "qfock.modular.ModularData.flow_residual", np.float64("nan"), "residual"),
        ("multipliers", "qfock.multipliers.net_pointwise_defect", float("inf"), "defect"),
    ],
)
def test_a_non_finite_replay_is_strict_json(
    tmp_path, capsys, monkeypatch, experiment, target, value, field
):
    monkeypatch.setattr(target, lambda *args, **kwargs: value)
    path = write_config(tmp_path, MIXED)
    assert main(["run", experiment, "--config", path, "--out", str(tmp_path / "out")]) == 2
    replay = strict_replay(capsys.readouterr().err)
    assert replay[field] == str(float(value))
    assert replay["space"]["q"] == MIXED["space"]["q"]


def test_the_replay_writes_nested_and_numpy_non_finite_values_as_strings():
    replay = {
        "a": [np.float32("-inf"), {"b": np.float64("nan"), "c": (float("inf"), 0.5)}],
        "d": F(1, 3),
        "e": np.float64(2.5),
    }
    # a non-finite float left in place would make allow_nan=False raise
    line = json.dumps(_strict(replay), default=str, allow_nan=False)
    assert strict_replay("replay: " + line) == {
        "a": ["-inf", {"b": "nan", "c": ["inf", 0.5]}],
        "d": "1/3",
        "e": 2.5,
    }


def test_moment_replay_values_read_back_as_numbers(tmp_path, capsys, monkeypatch):
    import qfock.moments

    oracle = qfock.moments.moment_matrix
    monkeypatch.setattr(
        qfock.moments, "moment_matrix", lambda spec, fock: oracle(spec, fock) + 1
    )
    path = write_config(tmp_path, MIXED)
    assert main(["run", "moments", "--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    replay_line = [line for line in err.splitlines() if line.startswith("replay:")]
    replay = json.loads(replay_line[0].removeprefix("replay: "))
    deformation = [[float(x) for x in row] for row in replay["deformation"]]
    assert deformation == MIXED["space"]["q"]


def test_each_net_step_checks_its_contraction_once(tmp_path, capsys, monkeypatch):
    import qfock.multipliers

    calls = []
    check = qfock.multipliers.check_quantizable

    def counted(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(qfock.multipliers, "check_quantizable", counted)
    # the minimal configuration runs the default 20 net steps
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "minimal.yaml")
    out = str(tmp_path / "out")
    assert main(["run", "multipliers", "--config", path, "--out", out]) == 0
    capsys.readouterr()
    assert len(calls) == 20


def test_ultra_report_carries_the_slope_summary(tmp_path, capsys):
    path = write_config(tmp_path, MIXED)
    out_dir = tmp_path / "report"
    assert main(["run", "ultra", "--config", path, "--out", str(out_dir)]) == 0
    capsys.readouterr()
    header, body, summary = read_rows(out_dir / "ultra.csv")
    assert header == [
        "m",
        "value_re",
        "value_im",
        "target_re",
        "target_im",
        "abs_error",
    ]
    assert len(body) == 4
    assert float(summary["slope"]) == pytest.approx(-1.0, abs=0.05)


def test_module_entry_point_runs_in_a_subprocess(tmp_path):
    path = write_config(tmp_path, MINIMAL)
    result = subprocess.run(
        [sys.executable, "-m", "qfock", "validate", "--config", path],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("valid")


# the package root's exports, in order
PACKAGE_EXPORTS = """
    BuildError ConfigError ContractionFamily ConvergenceReport CutoffError
    DeformationMatrix HilbertSetup InvariantError ModularData MomentSpec
    PairPartition RadialSymbol RunConfig SetPartition TruncatedFock UmSpec
    WickWord amplified_norm_estimate amplified_norm_scan basis_word_operator
    build_space check_quantizable config_hash convergence_experiment field
    from_vector kms_residual load_config modular_flow moment_matrix
    moment_pairings net_element net_majorant net_pointwise_defect norm_bound
    normalize_config pair_partitions radial_apply radial_matrix
    recursion_remainder_norm second_quantize second_quantize_matrix
    tail_series um_moment_closedform um_moment_enumerate vacuum_expectation
    wick_operator wick_recursion_residual
""".split()


def test_building_a_space_leaves_scipy_linalg_unimported(tmp_path):
    source = os.path.dirname(os.path.dirname(qfock.__file__))
    config = os.path.join(os.path.dirname(source), "configs", "minimal.yaml")

    def unimported(*names):
        return (
            f"for name in {names!r}:\n"
            "    assert name not in sys.modules, name + ' was imported'\n"
        )

    # no scipy, no numpy.ma and no package metadata on the run path;
    # numpy.random only where an experiment draws
    run_path = unimported(
        "scipy", "scipy.linalg", "scipy.sparse", "numpy.ma", "importlib.metadata"
    )
    build = (
        "import sys, qfock.cli\n"
        "from qfock.fock import TruncatedFock\n"
        "from qfock.hilbert import build_space\n"
        "setup = build_space([[0.3, -0.2], [-0.2, 0.55]], "
        "[('rotation', 0, 2.0), ('fixed', 1)])\n"
        "TruncatedFock(setup, 3)\n"
    )

    def run(experiment):
        # its own directory: concurrent runs would share the reports' .tmp names
        out = str(tmp_path / experiment)
        return (
            "import sys, qfock.cli\n"
            f"argv = ['run', {experiment!r}, '--config', {config!r}, '--out', {out!r}]\n"
            "assert qfock.cli.main(argv) == 0\n"
        )

    validate = (
        "import sys, qfock.cli\n"
        f"assert qfock.cli.main(['validate', '--config', {config!r}]) == 0\n"
    )
    # the package root loads a layer, or a submodule, only on first use
    package = (
        "import sys, qfock\n"
        + unimported("qfock.linalg", "qfock.config")
        + "assert callable(qfock.linalg.pin_blas_threads)\n"
        + f"assert qfock.__all__ == {PACKAGE_EXPORTS!r}\n"
    )
    # each command loads only the layers it runs
    upper = ("qfock.wick", "qfock.moments", "qfock.modular", "qfock.multipliers", "qfock.ultra")
    checks = [
        build + run_path,
        package,
        validate + run_path + unimported(*upper),
        run("all") + run_path,
        run("fock") + run_path + unimported("numpy.random", *upper),
        run("moments")
        + run_path
        + unimported("numpy.random", "qfock.modular", "qfock.multipliers", "qfock.ultra"),
        run("modular") + run_path + unimported("qfock.moments", "qfock.multipliers", "qfock.ultra"),
    ]
    # one OpenBLAS thread, as the command entry sets for itself: seven
    # interpreters on few CPUs must not each start a spinning worker
    env = {**os.environ, "PYTHONPATH": source, "OPENBLAS_NUM_THREADS": "1"}
    # the checks share nothing, so their interpreters start together
    children = [
        subprocess.Popen(
            [sys.executable, "-c", code],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        for code in checks
    ]
    try:
        for child in children:
            _, stderr = child.communicate(timeout=120)
            assert child.returncode == 0, stderr
    finally:
        for child in children:
            child.kill()


# dim 5, n_max 4: the level-4 smallest P eigenvalue is a 625-row pencil
FIVE_FIXED = {
    "space": {
        "q": [
            [-0.3354, 0.5893, -0.4582, 0.4291, -0.485],
            [0.5893, 0.3961, 0.2642, 0.1683, -0.0653],
            [-0.4582, 0.2642, -0.1975, -0.3633, -0.112],
            [0.4291, 0.1683, -0.3633, -0.0144, -0.2366],
            [-0.485, -0.0653, -0.112, -0.2366, -0.2339],
        ],
        "blocks": ["fixed"] * 5,
    },
    "fock": {"n_max": 4},
}


def test_fock_report_ignores_the_openblas_thread_variable(tmp_path):
    path = write_config(tmp_path, FIVE_FIXED)
    source = os.path.dirname(os.path.dirname(qfock.__file__))
    reports = []
    for threads in ("1", "2", "4"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "PYTHONPATH": source, "OPENBLAS_NUM_THREADS": threads}
        result = subprocess.run(
            [sys.executable, "-m", "qfock", "run", "fock", "--config", path, "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        reports.append((out / "fock.csv").read_bytes())
    assert reports[0] == reports[1]
    assert reports[0] == reports[2]


def _fresh_import(code, threads):
    """Run `code` in a fresh interpreter whose OPENBLAS_NUM_THREADS is
    `threads` (None: unset); return the JSON it prints."""
    source = os.path.dirname(os.path.dirname(qfock.__file__))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = source
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_the_command_entry_starts_openblas_on_one_thread():
    # before any pin: the count is read through pin_blas_threads' symbol lookup
    code = (
        "import json, os, sys\n"
        "import qfock.__main__\n"
        "from qfock import linalg\n"
        "lib = linalg._numpy_blas()\n"
        "counts = [getattr(lib, get)() for _, get in linalg._OPENBLAS_THREAD_SYMBOLS\n"
        "          if hasattr(lib, get)]\n"
        "tasks = len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else 1\n"
        "print(json.dumps([os.environ['OPENBLAS_NUM_THREADS'], counts[:1], tasks]))\n"
    )
    # numpy's wheels bundle OpenBLAS (see the manifest test below)
    assert _fresh_import(code, "4") == ["1", [1], 1]


@pytest.mark.parametrize("threads", ["4", None])
def test_importing_the_package_or_the_cli_changes_no_thread_variable(threads):
    code = (
        "import json, os\n"
        "import qfock\n"
        "seen = [os.environ.get('OPENBLAS_NUM_THREADS')]\n"
        "import qfock.cli\n"
        "seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        "print(json.dumps(seen))\n"
    )
    assert _fresh_import(code, threads) == [threads, threads]


def test_manifest_records_the_pinned_blas_thread_count(tmp_path, capsys):
    path = write_config(tmp_path, MINIMAL)
    assert main(["run", "fock", "--config", path, "--out", str(tmp_path / "x")]) == 0
    manifest = json.loads((tmp_path / "x" / "manifest.json").read_text())
    # numpy's wheels bundle OpenBLAS, whose thread count the pin reads back
    assert manifest["blas_threads"] == 1
    # and whose build configuration names the library
    assert manifest["blas_config"].startswith("OpenBLAS")


def test_manifest_records_the_process_cpu_seconds(tmp_path, capsys):
    path = write_config(tmp_path, MINIMAL)
    assert main(["run", "fock", "--config", path, "--out", str(tmp_path / "x")]) == 0
    manifest = json.loads((tmp_path / "x" / "manifest.json").read_text())
    # user + system over all threads since process start, not just this run
    assert isinstance(manifest["cpu_seconds"], float)
    assert manifest["cpu_seconds"] >= 0


def test_manifest_times_the_fock_build_phases(tmp_path, capsys):
    path = write_config(tmp_path, MIXED)
    assert main(["run", "fock", "--config", path, "--out", str(tmp_path / "x")]) == 0
    manifest = json.loads((tmp_path / "x" / "manifest.json").read_text())
    phases = manifest["fock_build_seconds"]
    # the pi tables are formed inside the symmetrizers phase; no Gram is built
    assert sorted(phases) == ["positivity", "symmetrizers"]
    assert all(value >= 0 for value in phases.values())
    assert sum(phases.values()) <= manifest["wall_time_seconds"]
    assert manifest["cpu_count"] == os.cpu_count()


def test_manifest_records_the_symmetrizer_bytes(tmp_path, capsys):
    # d = 5 at n_max 4, D = 781: a dense P(n) per level took 3.26 MB
    raw = {
        "space": {
            "q": [[0.3, -0.2, 0.1], [-0.2, 0.55, 0.05], [0.1, 0.05, -0.4]],
            "blocks": [
                {"kind": "rotation", "lam": 2.0},
                {"kind": "fixed"},
                {"kind": "rotation", "lam": 1.5},
            ],
        },
        "fock": {"n_max": 4},
    }
    path = write_config(tmp_path, raw)
    assert main(["run", "fock", "--config", path, "--out", str(tmp_path / "x")]) == 0
    manifest = json.loads((tmp_path / "x" / "manifest.json").read_text())
    fock = load_config(path).fock()
    assert fock.total_dim == 781
    held = sum(a.nbytes for pairs in fock._p_blocks for pair in pairs for a in pair)
    assert manifest["symmetrizer_bytes"] == held
    assert 0 < held < 2**20


def test_braid_defect_beyond_tolerance_exits_with_replay_data(tmp_path, capsys, monkeypatch):
    from qfock.fock import TruncatedFock

    exact = TruncatedFock.braid_defect

    def broken(self, i, n):
        return exact(self, i, n) + 1e-12

    monkeypatch.setattr(TruncatedFock, "braid_defect", broken)
    path = write_config(tmp_path, MIXED)
    code = main(["run", "fock", "--config", path, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "invariant violated: braid relation" in err
    replay_line = [line for line in err.splitlines() if line.startswith("replay:")]
    replay = json.loads(replay_line[0].removeprefix("replay: "))
    assert (replay["level"], replay["i"]) == (3, 0)
    assert replay["residual"] == pytest.approx(1e-12)
    assert replay["tolerance"] == 1e-13
    assert not (tmp_path / "out" / "fock.csv").exists()


def test_braid_gate_checks_the_flips_the_build_uses(tmp_path, capsys, monkeypatch):
    from qfock.fock import TruncatedFock

    exact = TruncatedFock._flip

    def broken(self, n, i):
        flip = exact(self, n, i)
        if n >= 3 and i == 1:
            return type(flip)(flip.perm, flip.coeff * 0.5)
        return flip

    monkeypatch.setattr(TruncatedFock, "_flip", broken)
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "full_run.yaml")
    code = main(["run", "fock", "--config", path, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "invariant violated: braid relation" in err
    replay_line = [line for line in err.splitlines() if line.startswith("replay:")]
    replay = json.loads(replay_line[0].removeprefix("replay: "))
    assert (replay["level"], replay["i"]) == (3, 0)
    assert replay["residual"] == pytest.approx(0.0416, abs=1e-4)


# gated check -> (report, summary key of its worst residual, residual column,
# the report's rows of the check as (column, value) or None for all)
HEADROOM_SOURCES = {
    "braid": ("fock", "max_braid_residual", "braid_residual", None),
    "moments": ("moments", "max_abs_diff", "abs_diff", None),
    "modular_decomposition": (
        "modular", "max_decomposition_residual", "residual", ("check", "decomposition")
    ),
    "modular_exchange": ("modular", "max_exchange_residual", "residual", ("check", "exchange")),
    "modular_flow": ("modular", "max_flow_residual", "residual", ("check", "flow")),
}


def test_manifest_carries_the_headroom_of_every_gated_check(tmp_path, capsys, monkeypatch):
    import qfock.cli
    from qfock.config import load_config
    from qfock.fock import BRAID_TOLERANCE

    configs = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
    paths = [
        os.path.join(configs, "minimal.yaml"),
        os.path.join(configs, "full_run.yaml"),
        # below level 3 no braid relation applies, below n_max 2 no exchange pair fits
        write_config(tmp_path, {**MIXED, "fock": {"n_max": 1}}),
    ]
    # each report's rows and summary as the runner returned them, before
    # 15-digit formatting
    reports = {}
    write = qfock.cli._write_report

    def kept(target, rows, summary):
        reports[os.path.basename(target).removesuffix(".csv")] = (rows, dict(summary))
        write(target, rows, summary)

    monkeypatch.setattr(qfock.cli, "_write_report", kept)
    for path in paths:
        reports.clear()
        assert main(["run", "all", "--config", path, "--out", str(tmp_path / "x")]) == 0
        capsys.readouterr()
        manifest = json.loads((tmp_path / "x" / "manifest.json").read_text())
        assert "tolerance_scale" not in manifest
        headroom = manifest["headroom"]
        config = load_config(path)
        expected = {}
        for check, (report, key, column, only) in HEADROOM_SOURCES.items():
            rows, summary = reports[report]
            residuals = [row[column] for row in rows if only is None or row[only[0]] == only[1]]
            if not residuals:
                assert key not in summary
                continue
            # the summary's worst residual is its report's largest
            assert summary[key] == max(residuals), (path, check)
            tolerance = BRAID_TOLERANCE if check == "braid" else config.tolerance(check)
            expected[check] = summary[key] / tolerance
        assert headroom == expected, path
        assert all(0 <= value <= 1 for value in headroom.values())
        if config.n_max == 1:
            assert headroom["braid"] == 0.0
            assert sorted(headroom) == ["braid", "modular_decomposition", "modular_flow", "moments"]
        else:
            assert sorted(headroom) == sorted(HEADROOM_SOURCES)


def test_moments_and_modular_form_no_full_space_matrix(tmp_path, monkeypatch):
    import qfock.wick
    from qfock.cli import _run_modular, _run_moments
    from qfock.config import normalize_config
    from qfock.fock import TruncatedFock

    e = [[float(i == j) for i in range(5)] for j in range(5)]
    raw = {
        **FIVE_FIXED,
        "experiments": {
            "moments": {"words": [{"vectors": [e[0], e[1], e[1], e[0]]}]},
            "modular": {"times": [0.3], "pairs": 2},
        },
    }
    config = normalize_config(raw)
    fock = config.fock()
    assert fock.total_dim == 781

    def refuse(*args):
        raise AssertionError("a D x D operator was densified")

    def no_gram(*args):
        raise AssertionError("a level Gram was formed")

    monkeypatch.setattr(qfock.wick, "_densify", refuse)
    monkeypatch.setattr(TruncatedFock, "gram", no_gram)
    _run_moments(config, fock, {})
    _run_modular(config, fock, {})
    assert "full_gram" not in fock.__dict__
