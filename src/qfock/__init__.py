"""Desk-scale laboratory for mixed q-deformed Fock spaces.

Layers, bottom to top: deformed one-particle geometry (hilbert), truncated
twisted Fock levels (fock), Wick words (wick), pair-partition moments
(moments), modular data (modular), radial multipliers and contraction nets
(multipliers), finite-dimension averaging experiments (ultra), and a
configuration-driven command line (config, cli); the size caps of every
layer are in one table (limits).

Importing the package loads no layer.  Each exported name, and each
submodule reached as an attribute (``qfock.linalg``), is imported on
first use.
"""

import importlib

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "combinatorics": "PairPartition pair_partitions",
    "config": "RunConfig config_hash load_config normalize_config",
    "errors": "BuildError ConfigError CutoffError InvariantError",
    "fock": "TruncatedFock",
    "hilbert": "DeformationMatrix HilbertSetup build_space",
    "modular": "ModularData kms_residual modular_flow",
    "moments": "MomentSpec moment_matrix moment_pairings",
    "multipliers": "ContractionFamily RadialSymbol amplified_norm_estimate amplified_norm_scan"
    " check_quantizable net_element net_majorant net_pointwise_defect radial_apply"
    " radial_matrix second_quantize second_quantize_matrix tail_series",
    "ultra": "ConvergenceReport UmSpec convergence_experiment um_moment_closedform"
    " um_moment_enumerate",
    "wick": "WickWord basis_word_operator field from_vector norm_bound vacuum_expectation"
    " wick_operator wick_recursion_residual",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    """Import an exported name, or a submodule, on first use (PEP 562)."""
    if name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
        globals()[name] = value
        return value
    try:
        # importing a submodule also binds it on the package
        return importlib.import_module(f".{name}", __name__)
    except ModuleNotFoundError as err:
        if err.name != f"{__name__}.{name}":
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
