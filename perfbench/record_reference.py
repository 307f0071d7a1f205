"""Record reference report values for the correctness gate.

    python3 perfbench/record_reference.py [SEED ...]

Run from the root of a source checkout.  For each workload and seed
(default: 0), runs every invocation of the workload plus `qfock run fock`
on its set-up config, and writes the parsed report values to
perfbench/reference.json, merged with what is already there.  Record only
from a commit whose reports are known to be right.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from check import check_reports  # noqa: E402
from run import child_env  # noqa: E402
from workloads import WORKLOAD_NAMES, generate  # noqa: E402

import yaml  # noqa: E402


def record(root: str, name: str, seed: int) -> dict:
    workload = generate(name, seed)
    calls = [(inv.experiment, inv.config) for inv in workload.invocations]
    calls.append(("fock", workload.setup_config))
    out = {}
    with tempfile.TemporaryDirectory(dir=os.path.join(root, ".perfbench")) as work:
        for experiment, config_name in calls:
            config_path = os.path.join(work, config_name)
            with open(config_path, "w", encoding="utf-8") as handle:
                handle.write(workload.configs[config_name])
            out_dir = os.path.join(work, f"{experiment}.out")
            subprocess.run(
                [sys.executable, "-m", "qfock", "run", experiment, "--config", config_path,
                 "--seed", str(seed), "--out", out_dir],
                cwd=root, env=child_env(root), check=True, stdout=subprocess.DEVNULL,
            )
            config = yaml.safe_load(workload.configs[config_name])
            problems, reports = check_reports(out_dir, config, experiment)
            if problems:
                raise SystemExit(f"{name} seed {seed}: " + "; ".join(problems))
            for report_name, report in reports.items():
                out.setdefault(config_name, {})[report_name] = {
                    "rows": report["rows"],
                    "summary": report["summary"],
                }
    return out


def main(argv) -> int:
    seeds = [int(x) for x in argv] or [0]
    root = os.getcwd()
    os.makedirs(os.path.join(root, ".perfbench"), exist_ok=True)
    path = os.path.join(HERE, "reference.json")
    data = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    for name in WORKLOAD_NAMES:
        for seed in seeds:
            data.setdefault(name, {})[str(seed)] = record(root, name, seed)
            print(f"recorded {name} seed {seed}", flush=True)
    # one line per workload and seed keeps the file small and diffable
    compact = {"separators": (",", ":"), "sort_keys": True}
    blocks = []
    for name in sorted(data):
        seeds = sorted(data[name], key=int)
        lines = [f" {json.dumps(s)}:{json.dumps(data[name][s], **compact)}" for s in seeds]
        blocks.append(f"{json.dumps(name)}:{{\n" + ",\n".join(lines) + "\n}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(blocks) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
