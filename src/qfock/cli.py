"""Command-line surface: configuration checks, experiment runs, reports.

Every run is deterministic for a fixed (configuration, seed) pair: the
experiments that draw (modular, multipliers) seed their own generators
from the seed, modular also from its place in the experiment order, so
the report bodies of a combined run match those of individual runs
exactly.  Reports are CSV with a header row, fixed column order,
15-significant-digit numbers, and a trailing summary block of key,value
lines introduced by a '# summary' marker; every summary carries the
configuration hash.  Files appear via write-then-rename, so a failed run
never leaves a partial report.

Every command runs numpy's OpenBLAS on one thread, whatever
``OPENBLAS_NUM_THREADS`` says: the entry (``qfock.__main__``) sets it to 1
before numpy loads, so OpenBLAS starts no busy-waiting worker (~0.1 s of
CPU per command on two CPUs), and ``main`` pins one thread, which holds
when numpy loaded first.  A run's manifest records the count read back,
OpenBLAS's build string (both null on other BLAS builds) and CPU seconds.

Every gate of this module passes through ``_gate``; the moments gate is
``moments.checked_moment``.  A tolerance has one source: the
configuration's ``tolerances`` section, or ``fock.BRAID_TOLERANCE`` for the
braid gate; the net defect's gate checks finiteness alone.  The manifest's
``headroom`` is each toleranced check's worst residual over its tolerance,
as the runners recorded them.

Exit codes: 0 success, 1 usage, configuration or precondition failure, 2
invariant failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time

import numpy as np
import yaml

from . import __version__
from .config import RunConfig, config_hash, load_config
from .errors import BuildError, ConfigError, CutoffError, InvariantError
from .fock import BRAID_TOLERANCE
from .linalg import blas_config, gram_inner, pin_blas_threads

# the layers above fock (wick, moments, modular, multipliers, ultra) are
# imported inside the runners that use them, so a command loads only what
# it runs

__all__ = ["main"]

EXPERIMENT_ORDER = ("fock", "moments", "modular", "multipliers", "ultra")


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.15g" % float(value)
    return str(value)


def _write_text(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp, path)


def _write_report(path: str, rows, summary) -> None:
    # every experiment emits at least one row, and all rows share its keys
    columns = list(rows[0])
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    lines.append("# summary")
    for key, value in summary:
        lines.append(f"{key},{_fmt(value)}")
    _write_text(path, "\n".join(lines) + "\n")


def _strict(value):
    """``value`` with every non-finite float in it, numpy's included and
    through nested dicts, lists and tuples, written as the string "nan",
    "inf" or "-inf": JSON has no token for them, and the replay line is
    strict JSON."""
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        return "nan" if math.isnan(value) else "inf" if value > 0 else "-inf"
    return value


def _invariant(config, name: str, **fields) -> InvariantError:
    """Invariant failure whose replay names the space and cutoff of the run."""
    replay = {"space": config.data["space"], "n_max": config.n_max, **fields}
    return InvariantError(name, replay=replay)


def _gate(config, gated, check, residual, tolerance, invariant: str, /, **replay) -> None:
    """Pass a finite ``residual`` at most ``tolerance``; any other, NaN
    included, raises ``invariant`` with ``replay`` (the parameters are
    positional, so replay fields may reuse their names).  A named ``check``
    keeps its worst residual and its tolerance in ``gated``, which the
    manifest's headroom reads."""
    if not (math.isfinite(residual) and residual <= tolerance):
        raise _invariant(config, invariant, **replay)
    if check is not None:
        worst = gated.get(check, (0.0,))[0]
        gated[check] = (max(worst, residual), tolerance)


def _random_word(fock, rng, level: int):
    from .wick import from_vector

    dim = fock.level_dim(level)
    coords = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return from_vector(fock, coords, level)


def _run_fock(config, fock, gated):
    rows = []
    floor_eig = float("inf")
    # recorded as 0 below level 3, where no braid relation applies
    gated["braid"] = (0.0, BRAID_TOLERANCE)
    for n in range(fock.n_max + 1):
        # the build has refused any level at or below POSITIVITY_FLOOR
        eig = float(fock.min_p_eigenvalue(n))
        braid = 0.0
        for i in range(n - 2):
            residual = fock.braid_defect(i, n)
            _gate(
                config, gated, "braid", residual, BRAID_TOLERANCE, "braid relation",
                level=n, i=i, residual=residual, tolerance=BRAID_TOLERANCE,
            )
            braid = max(braid, residual)
        floor_eig = min(floor_eig, eig)
        rows.append(
            {
                "level": n,
                "dim": fock.level_dim(n),
                "min_p_eigenvalue": eig,
                "braid_residual": braid,
            }
        )
    summary = [("min_p_eigenvalue", floor_eig), ("max_braid_residual", gated["braid"][0])]
    return rows, summary


def _run_moments(config, fock, gated):
    from .moments import MomentSpec, checked_moment

    setup = fock.setup
    tol = config.tolerance("moments")
    rows = []
    worst = 0.0
    for i, word in enumerate(config.experiment("moments")["words"]):
        spec = MomentSpec.build(setup, [np.asarray(v) for v in word["vectors"]])
        pairing, matrix, gap = checked_moment(
            spec, fock, tol, space=config.data["space"], word=word
        )
        worst = max(worst, gap)
        rows.append(
            {
                "word": i,
                "length": spec.l,
                "pairing_re": pairing.real,
                "pairing_im": pairing.imag,
                "matrix_re": matrix.real,
                "matrix_im": matrix.imag,
                "abs_diff": gap,
            }
        )
    # checked_moment has gated every gap
    gated["moments"] = (worst, tol)
    return rows, [("max_abs_diff", worst)]


def _run_modular(config, fock, gated):
    from .modular import ModularData, kms_residual, modular_flow

    # built here, so a run without modular or multipliers never imports numpy.random
    rng = np.random.default_rng([config.seed, EXPERIMENT_ORDER.index("modular")])
    modular = ModularData(fock)
    params = config.experiment("modular")
    rows = []

    def push(check, parameter, residual):
        tol = config.tolerance(f"modular_{check}")
        _gate(
            config, gated, f"modular_{check}", residual, tol, f"modular {check} identity",
            seed=config.seed, check=check, parameter=parameter, residual=residual, tolerance=tol,
        )
        rows.append({"check": check, "parameter": parameter, "residual": residual})

    for n in range(fock.n_max + 1):
        push("decomposition", n, modular.decomposition_residual(n))

    kms_cap = fock.n_max // 2
    if kms_cap >= 1:
        for p in range(params["pairs"]):
            x = _random_word(fock, rng, int(rng.integers(1, kms_cap + 1)))
            y = _random_word(fock, rng, int(rng.integers(1, kms_cap + 1)))
            push("exchange", p, float(kms_residual(fock, x, y)))

    for t in params["times"]:
        word = _random_word(fock, rng, 1)
        flowed = modular_flow(fock, t, word)
        push("flow", t, float(modular.flow_residual(t, word, flowed)))

    # no exchange check below n_max 2, where no pair of words fits
    summary = [
        (f"max_{check}_residual", gated[f"modular_{check}"][0])
        for check in ("decomposition", "exchange", "flow")
        if f"modular_{check}" in gated
    ]
    return rows, summary


def _run_multipliers(config, fock, gated):
    from .multipliers import (
        ContractionFamily,
        amplified_norm_estimate,
        net_element,
        net_majorant,
        net_pointwise_defect,
    )
    from .wick import from_vector

    setup = fock.setup
    params = config.experiment("multipliers")
    family = ContractionFamily(setup)
    full = family.size - 1
    level = params["word_level"]
    coords = np.zeros(fock.level_dim(level), dtype=complex)
    coords[0] = 1.0
    norm = float(np.sqrt(abs(gram_inner(coords, coords, fock.gram(level)))))
    word = from_vector(fock, coords / norm, level)
    rows = []
    last = {}
    for j in range(1, params["steps"] + 1):
        t = 1.0 / j
        element = net_element(fock, family, fock.n_max, t, full)
        estimate = float(
            amplified_norm_estimate(
                fock, element.argument_matrix(), params["amplification"], seed=config.seed
            )
        )
        defect = float(net_pointwise_defect(element, word, surrogate=max(1.0, estimate)))
        # a square root of a modulus, so only finiteness is gated: no headroom
        _gate(
            config, gated, None, defect, math.inf, "net defect finiteness", step=j, defect=defect
        )
        last = {"estimate": estimate, "defect": defect}
        rows.append(
            {
                "step": j,
                "time": t,
                "length_cut": fock.n_max,
                "rank_index": full,
                "amplification": params["amplification"],
                "estimate": estimate,
                "defect": defect,
                "majorant": net_majorant(fock.n_max, t),
            }
        )
    summary = [("final_defect", last["defect"]), ("final_estimate", last["estimate"])]
    return rows, summary


def _run_ultra(config, fock, gated):
    from .ultra import convergence_experiment

    setup = fock.setup
    params = config.experiment("ultra")
    report = convergence_experiment(
        setup, params["vectors"], params["q"], params["q_tilde"], params["m_list"]
    )
    slope = report.slope if report.slope is not None else float("nan")
    return report.rows(), [("slope", slope)]


EXPERIMENTS = {
    "fock": _run_fock,
    "moments": _run_moments,
    "modular": _run_modular,
    "multipliers": _run_multipliers,
    "ultra": _run_ultra,
}


def _usage() -> tuple[float, float]:
    """This process's CPU seconds (user + system, all threads) and peak RSS in MiB, so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    # Linux reports kibibytes, macOS bytes
    scale = 2**20 if sys.platform == "darwin" else 2**10
    return round(usage.ru_utime + usage.ru_stime, 6), round(usage.ru_maxrss / scale, 3)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfock",
        description="Mixed-deformation Fock laboratory: validate configs, run experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser("validate", help="validate a configuration and echo it normalized")
    check.add_argument("--config", required=True, help="path to a YAML run configuration")
    run = sub.add_parser("run", help="run experiments and write CSV reports")
    run.add_argument(
        "experiment",
        choices=EXPERIMENT_ORDER + ("all",),
        help="which experiment to run",
    )
    run.add_argument("--config", required=True, help="path to a YAML run configuration")
    run.add_argument("--seed", type=int, default=None, help="override the configured seed")
    run.add_argument("--out", default=None, help="override the configured output directory")
    return parser


def _do_validate(args) -> int:
    config = load_config(args.config)
    config.fock()  # the build's gates, level positivity included
    print("valid")
    print(yaml.safe_dump(config.data, sort_keys=True).rstrip())
    return 0


def _do_run(args, blas_threads) -> int:
    config = load_config(args.config)
    data = dict(config.data)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {args.seed}")
        data["seed"] = args.seed
    if args.out is not None:
        data["output_dir"] = args.out
    config = RunConfig(data)
    digest = config_hash(config)

    started = time.perf_counter()
    os.makedirs(config.output_dir, exist_ok=True)
    fock = config.fock()
    names = EXPERIMENT_ORDER if args.experiment == "all" else (args.experiment,)
    if "multipliers" in names:  # an oversized scan fails before any report
        from .multipliers import check_stack_budget
        check_stack_budget(fock)
    written = {}
    seconds = {}
    gated = {}  # check -> (worst residual, tolerance), as the runners' gates passed them
    for name in names:
        begun = time.perf_counter()
        rows, summary = EXPERIMENTS[name](config, fock, gated)
        seconds[name] = round(time.perf_counter() - begun, 6)
        summary = list(summary) + [("config_hash", digest)]
        path = os.path.join(config.output_dir, f"{name}.csv")
        _write_report(path, rows, summary)
        written[name] = os.path.basename(path)
        print(f"wrote {path}")

    # only wick fills the basis-word cache: a run that never loaded it has none
    wick = sys.modules.get(f"{__package__}.wick")
    entries, held = wick.cache_footprint(fock) if wick else (0, 0)
    cpu_seconds, peak_rss_mb = _usage()
    manifest = {
        "blas_config": blas_config(),
        "blas_threads": blas_threads,
        "config_hash": digest,
        "cpu_count": os.cpu_count(),
        "cpu_seconds": cpu_seconds,
        "experiment_seconds": seconds,
        "fock_build_seconds": fock.build_seconds,
        "headroom": {check: worst / tol for check, (worst, tol) in gated.items()},
        "peak_rss_mb": peak_rss_mb,
        "seed": config.seed,
        "reports": written,
        "versions": {
            "python": ".".join(str(x) for x in sys.version_info[:3]),
            "qfock": __version__,
            "numpy": np.__version__,
        },
        "symmetrizer_bytes": fock.symmetrizer_bytes,
        "wall_time_seconds": round(time.perf_counter() - started, 6),
        "wick_cache": {"entries": entries, "bytes": held},
    }
    path = os.path.join(config.output_dir, "manifest.json")
    _write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    blas_threads = pin_blas_threads()
    try:
        args = _parser().parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on a usage error, the code of an invariant failure
        # here; its message is on stderr already, and --help exits 0
        return 1 if err.code == 2 else err.code
    try:
        if args.command == "validate":
            return _do_validate(args)
        return _do_run(args, blas_threads)
    except ConfigError as err:
        print("invalid configuration:", file=sys.stderr)
        for item in err.violations:
            print(f"  - {item}", file=sys.stderr)
        return 1
    except BuildError as err:
        print("precondition failure:", file=sys.stderr)
        for item in err.violations:
            print(f"  - {item}", file=sys.stderr)
        return 1
    except CutoffError as err:
        print(f"cutoff exceeded: {err}", file=sys.stderr)
        return 1
    except InvariantError as err:
        print(f"invariant violated: {err.invariant}", file=sys.stderr)
        # what JSON cannot hold (a Fraction, a complex number) is its str
        replay = json.dumps(_strict(err.replay), sort_keys=True, default=str, allow_nan=False)
        print("replay: " + replay, file=sys.stderr)
        return 2
    except OSError as err:
        print(f"i/o failure: {err}", file=sys.stderr)
        return 3

