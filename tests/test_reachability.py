"""Which code of ``src/qfock`` a run reaches, and what the rest is for.

One pass, in process and under ``sys.setprofile``, uses the package the way
its users do: ``validate`` and every experiment on the shipped configs,
``normalize_config`` on every invalid configuration of the config tests,
and every demo.  It imports the package afresh, so what earlier tests
imported or cached hides no call.  Every module-level or class-level
``def`` of the package must be entered by that pass or be listed in
``ORACLES``.  An entry's value names an entered function: the one it
guards, as an oracle the tests compare it against, or the one whose
failure it reports, as an error path.  Code that can name no such target
is deleted, not listed.
"""

import ast
import contextlib
import importlib
import io
import runpy
import sys
from pathlib import Path

from test_config import INVALID_CONFIGS

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "qfock"
CONFIGS = sorted((ROOT / "configs").glob("*.yaml"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# its d = 3, n_max 4 scan takes 2.4 s and enters nothing the other configs miss
SKIPPED_RUNS = {("modular_rotation.yaml", "multipliers")}

# def the pass does not enter (module.qualname) -> entered def it serves
ORACLES = {
    # error paths: they report the failure of a gate the runs pass
    "cli._invariant": "cli._gate",
    "cli._strict": "cli._gate",
    "errors.InvariantError.__init__": "moments.checked_moment",
    "moments._serialize": "moments.checked_moment",
    "combinatorics.PairPartition.validate": "combinatorics.pair_partitions",
    "combinatorics.PairPartition.from_pairs": "combinatorics.pair_partitions",
    "combinatorics.check_permutation": "fock.TruncatedFock._pi_table",
    # oracles: the tests compare the target against them
    "fock.TruncatedFock.annihilation": "fock.TruncatedFock.annihilation_step",
    "fock.TruncatedFock.creation": "wick._assemble_entries",
    "fock.TruncatedFock.pi_of": "fock.TruncatedFock._pi_table",
    "combinatorics.reduced_word": "fock.TruncatedFock._pi_table",
    "combinatorics.word_permutation": "fock.TruncatedFock._pi_table",
    "combinatorics.all_reduced_words": "fock.TruncatedFock._pi_table",
    "combinatorics._all_reduced_words": "fock.TruncatedFock._pi_table",
    "fock.TruncatedFock.r_star": "fock.TruncatedFock._orbit_blocks",
    "linalg.min_gen_eig": "fock.TruncatedFock._orbit_min_eigenvalue",
    "multipliers.second_quantize_matrix": "multipliers._legwise_matrix",
    "multipliers.radial_apply": "multipliers.second_quantize",
    "modular.ModularData.unitary_conjugate": "modular.ModularData.flow_residual",
    "modular.ModularData.s_apply": "modular.ModularData.decomposition_residual",
    "modular.ModularData.s_full_apply": "modular.ModularData.decomposition_residual",
    "wick.WickWord.adjoint_matrix": "wick.from_vector",
    "wick.norm_bound": "wick.from_vector",
    "wick.span_operator": "multipliers._realize",
    "combinatorics.double_factorial": "combinatorics.pair_partitions",
    "combinatorics.kernel": "combinatorics.SetPartition.join",
    "combinatorics.refines": "combinatorics.SetPartition.join",
}


def _definitions() -> dict:
    """(file, first line) -> module.qualname of every module-level or
    class-level def of the package; a code object's first line is that of
    its first decorator."""
    out = {}
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            scope, defs = f"{path.stem}.", [node]
            if isinstance(node, ast.ClassDef):
                scope, defs = f"{path.stem}.{node.name}.", node.body
            for item in defs:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    line = min([item.lineno] + [d.lineno for d in item.decorator_list])
                    out[str(path), line] = scope + item.name
    return out


def _package_modules() -> dict:
    return {name: module for name, module in sys.modules.items() if name.partition(".")[0] == "qfock"}


@contextlib.contextmanager
def _fresh_package():
    """The package imported anew, and the suite's own modules put back after."""
    saved = _package_modules()
    for name in saved:
        del sys.modules[name]
    try:
        yield
    finally:
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def _exercise(out_dir: Path) -> None:
    cli = importlib.import_module("qfock.cli")
    config = importlib.import_module("qfock.config")
    # the pass must run the source that _definitions reads
    assert Path(cli.__file__).resolve().parent == SOURCE
    for path in CONFIGS:
        assert cli.main(["validate", "--config", str(path)]) == 0
        for name in cli.EXPERIMENT_ORDER:
            if (path.name, name) not in SKIPPED_RUNS:
                argv = ["run", name, "--config", str(path), "--out", str(out_dir / path.stem)]
                assert cli.main(argv) == 0
    for raw, _ in INVALID_CONFIGS.values():
        with contextlib.suppress(config.ConfigError):
            config.normalize_config(raw)
    for path in DEMOS:
        runpy.run_path(str(path), run_name="__main__")


def _entered(out_dir: Path) -> set:
    """(file, first line) of every code object the pass enters."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    with _fresh_package(), contextlib.redirect_stdout(io.StringIO()):
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            _exercise(out_dir)
        finally:
            sys.setprofile(previous)
    return {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in codes}


def test_every_def_is_entered_or_names_what_it_serves_in_oracles(tmp_path):
    where = _definitions()
    defined = set(where.values())
    entered = {where[key] for key in _entered(tmp_path) if key in where}
    problems = [
        f"{name}: entered by nothing and not in ORACLES"
        for name in sorted(defined - entered - set(ORACLES))
    ]
    for name, target in sorted(ORACLES.items()):
        if name not in defined:
            problems.append(f"{name}: in ORACLES but not defined")
        elif name in entered:
            problems.append(f"{name}: in ORACLES but entered")
        if target not in entered:
            problems.append(f"{name}: its target {target} is not entered")
    assert problems == [], "\n".join(problems)
