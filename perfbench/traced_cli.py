"""Run one qfock CLI command in-process with spans around each layer.

Usage: python3 perfbench/traced_cli.py OUT.json <qfock CLI arguments...>

Wraps the public calls into each qfock module from outside (no change to
the package), runs ``qfock.cli.main`` once, and writes the spans, counts,
loaded BLAS libraries and versions to OUT.json when the command ends.
The process exits with the CLI's exit code.

A span is [name, start, end, parent index]; parent -1 is the root.  Span
names are the per-layer metric names.  Modules import names directly
(``from .wick import from_vector``), so every module attribute bound to
the original function is rebound to its wrapper; otherwise those calls
would escape the trace.
"""

from __future__ import annotations

import ctypes
import functools
import json
import os
import platform
import sys
import time

_clock = time.perf_counter


class Tracer:
    """In-memory spans plus counters, written once at the end."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}

    def add(self, key: str, amount=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def open(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else -1
        record = [name, _clock(), 0.0, parent]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def close(self, record: list) -> None:
        record[2] = _clock()
        self.stack.pop()

    def wrap(self, name: str, fn, before=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            record = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(record)

        return traced


def _qfock_modules() -> list:
    return [m for n, m in sys.modules.items() if n == "qfock" or n.startswith("qfock.")]


def _rebind(original, wrapped) -> None:
    """Point every qfock module attribute bound to ``original`` at ``wrapped``."""
    for module in _qfock_modules():
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries the benchmark reports on."""
    import qfock  # noqa: F401  (loads every submodule)
    from qfock import cli, config, fock, hilbert, linalg, modular, moments, multipliers, ultra, wick

    for name, fn in list(cli.EXPERIMENTS.items()):
        cli.EXPERIMENTS[name] = tracer.wrap(f"cli.experiment_s.{name}", fn)

    functions = [
        (config, "load_config", "config.load_s", None),
        (hilbert, "build_space", "hilbert.build_space_s", None),
        (wick, "from_vector", "wick.from_vector_s", None),
        (wick, "span_operator", "wick.span_operator_s", None),
        (wick, "wick_operator", "wick.wick_operator_s", None),
        (moments, "moment_matrix", "moments.matrix_s", None),
        (moments, "moment_pairings", "moments.pairings_s", None),
        (modular, "kms_residual", "modular.kms_residual_s", None),
        (modular, "modular_flow", "modular.flow_s", None),
        (multipliers, "amplified_norm_estimate", "multipliers.norm_estimate_s", None),
        (multipliers, "net_element", "multipliers.net_element_s", None),
        (multipliers, "net_pointwise_defect", "multipliers.defect_s", None),
        # a pencil of size n costs O(n^3) in the generalized eigensolver
        (linalg, "op_norm", "linalg.op_norm_s",
         lambda a: tracer.add("linalg.eigh_n3_computed", a[0].shape[1] ** 3)),
        (linalg, "min_gen_eig", "linalg.min_gen_eig_s",
         lambda a: tracer.add("linalg.eigh_n3_computed", a[0].shape[0] ** 3)),
        (ultra, "convergence_experiment", "ultra.convergence_s", None),
        (ultra, "um_moment_enumerate", "ultra.enumerate_s", None),
    ]
    for module, attr, name, before in functions:
        original = getattr(module, attr)
        _rebind(original, tracer.wrap(name, original, before))

    cls = fock.TruncatedFock
    build = tracer.wrap("fock.build_s", cls.__init__)

    def init(self, *args, **kwargs):
        build(self, *args, **kwargs)
        tracer.counts["fock.total_dim"] = max(
            tracer.counts.get("fock.total_dim", 0), self.total_dim
        )

    cls.__init__ = init
    cls.min_p_eigenvalue = tracer.wrap("fock.min_p_eigenvalue_s", cls.min_p_eigenvalue)
    cls.annihilation = tracer.wrap("fock.annihilation_s", cls.annihilation)
    cls.creation = tracer.wrap("fock.creation_s", cls.creation)
    modular.ModularData.fock_unitary = tracer.wrap(
        "modular.fock_unitary_s", modular.ModularData.fock_unitary
    )

    # basis-word lookups are counted, not spanned: they run ~10^5 times
    # per invocation and their time already lands in the caller's span
    lookup = wick.basis_word_operator

    def basis_word_operator(fock_space, word):
        tracer.add("wick.basis_word_calls")
        if tuple(word) in fock_space.__dict__.get("_wick_cache", ()):
            tracer.add("wick.basis_word_hits")
        else:
            tracer.add("wick.cache_bytes_computed", 16 * fock_space.total_dim**2)
        return lookup(fock_space, word)

    _rebind(lookup, basis_word_operator)


# symbols that report the thread count of an OpenBLAS build, by flavour
_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_CONFIG_SYMBOLS = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)


def _first_symbol(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn()
    return None


def blas_libraries() -> list:
    """OpenBLAS copies mapped into this process, with their thread counts."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = sorted(
                {
                    line.split()[-1]
                    for line in handle
                    if "openblas" in os.path.basename(line.split()[-1]).lower()
                }
            )
    except OSError:
        return []
    out = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        config = _first_symbol(lib, _CONFIG_SYMBOLS, ctypes.c_char_p)
        out.append(
            {
                "library": os.path.basename(path),
                "threads": _first_symbol(lib, _THREAD_SYMBOLS, ctypes.c_int),
                "config": config.decode() if config else None,
            }
        )
    return out


def main(argv) -> int:
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    record = tracer.open("cli.import_s")
    install(tracer)
    from qfock import cli
    import numpy
    import scipy

    tracer.close(record)
    record = tracer.open("cli.main_s")
    try:
        code = cli.main(cli_args)
    finally:
        tracer.close(record)
    result = {
        "argv": cli_args,
        "exit_code": code,
        "spans": tracer.spans,
        "counts": tracer.counts,
        "blas": blas_libraries(),
        "nproc": len(os.sched_getaffinity(0)),
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    tmp = out_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    os.replace(tmp, out_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
