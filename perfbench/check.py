"""Correctness gate for the reports of one qfock invocation.

An invocation fails when its reports are missing, when a report has a
different row count than its configuration implies, when any number in it
is not finite, or, where reference values exist for the seed, when a
number differs from its reference by more than the stated tolerance.

Tolerances.  Values (moments, estimates, defects, eigenvalues, averaged
moments, slopes) must agree within REL_TOL relative plus ABS_TOL absolute:
loose enough for the <= 1e-12 relative digit drift a re-implemented route
may bring, tight enough that a wrong estimate or a dropped term shows.
Residual columns hold round-off (1e-16 .. 1e-13) and are compared in
absolute terms within RESIDUAL_TOL, below every tolerance the program
itself gates on.
"""

from __future__ import annotations

import json
import math
import os

REL_TOL = 1e-9
ABS_TOL = 1e-12
RESIDUAL_TOL = 1e-10

ALL_EXPERIMENTS = ("fock", "moments", "modular", "multipliers", "ultra")

# summary keys that are not numbers the run computed
_UNCHECKED_KEYS = {"config_hash"}


def experiments_of(experiment: str) -> tuple:
    return ALL_EXPERIMENTS if experiment == "all" else (experiment,)


def expected_rows(config: dict, experiment: str) -> int:
    """Row count the (explicit) configuration implies for one report."""
    n_max = config["fock"]["n_max"]
    params = config.get("experiments", {}).get(experiment, {})
    if experiment == "fock":
        return n_max + 1
    if experiment == "moments":
        return len(params["words"])
    if experiment == "modular":
        exchange = params["pairs"] if n_max // 2 >= 1 else 0
        return n_max + 1 + exchange + len(params["times"])
    if experiment == "multipliers":
        return params["steps"]
    if experiment == "ultra":
        return len(params["m_list"])
    raise ValueError(f"unknown experiment {experiment!r}")


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def read_report(path: str) -> dict:
    """Rows as lists of cells and the summary block as key -> cell."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    columns = lines[0].split(",")
    rows, summary, in_summary = [], {}, False
    for line in lines[1:]:
        if line == "# summary":
            in_summary = True
        elif in_summary:
            key, value = line.split(",", 1)
            if key not in _UNCHECKED_KEYS:
                summary[key] = _cell(value)
        else:
            rows.append([_cell(x) for x in line.split(",")])
    return {"columns": columns, "rows": rows, "summary": summary}


def _is_residual(name: str) -> bool:
    return name.endswith("residual") or name.endswith("abs_diff")


def _compare(where: str, name: str, value, ref, problems: list) -> None:
    if isinstance(ref, str) or isinstance(value, str):
        if value != ref:
            problems.append(f"{where}: {value!r} differs from reference {ref!r}")
        return
    if _is_residual(name):
        ok = abs(value - ref) <= RESIDUAL_TOL
    else:
        ok = abs(value - ref) <= REL_TOL * abs(ref) + ABS_TOL
    if not ok:
        problems.append(f"{where}: {value!r} outside tolerance of reference {ref!r}")


def check_reports(out_dir: str, config: dict, experiment: str, reference=None) -> tuple:
    """Problems found in one invocation's output directory, and the parsed
    reports (experiment -> report) for recording references."""
    problems, reports = [], {}
    try:
        with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as handle:
            listed = json.load(handle).get("reports", {})
    except (OSError, ValueError) as err:
        return [f"manifest.json unreadable: {err}"], reports
    for name in experiments_of(experiment):
        path = os.path.join(out_dir, f"{name}.csv")
        if listed.get(name) != f"{name}.csv":
            problems.append(f"manifest.json does not list {name}.csv")
        try:
            report = read_report(path)
        except (OSError, IndexError, ValueError) as err:
            problems.append(f"{name}.csv unreadable: {err}")
            continue
        reports[name] = report
        want = expected_rows(config, name)
        if len(report["rows"]) != want:
            problems.append(f"{name}.csv has {len(report['rows'])} rows, config implies {want}")
            continue
        cells = [(c, v) for row in report["rows"] for c, v in zip(report["columns"], row)]
        cells += list(report["summary"].items())
        bad = [c for c, v in cells if isinstance(v, float) and not math.isfinite(v)]
        if bad:
            problems.append(f"{name}.csv has non-finite values in {sorted(set(bad))}")
            continue
        ref = None if reference is None else reference.get(name)
        if ref is None:
            continue
        for i, (row, ref_row) in enumerate(zip(report["rows"], ref["rows"])):
            for column, value, ref_value in zip(report["columns"], row, ref_row):
                _compare(f"{name}.csv row {i} {column}", column, value, ref_value, problems)
        for key, ref_value in ref["summary"].items():
            if key not in report["summary"]:
                problems.append(f"{name}.csv summary lacks {key}")
            else:
                _compare(f"{name}.csv summary {key}", key, report["summary"][key], ref_value, problems)
    return problems, reports
