"""End-to-end experiment pipeline: config file to CSV reports.

Writes a configuration, validates it, runs every experiment through the
same entry point the ``qfock`` command uses, and reads the reports back.
Rerunning with the same seed reproduces every CSV byte for byte.
"""

import json
import pathlib
import tempfile

import yaml

from qfock import config_hash, normalize_config
from qfock.cli import main as qfock_main
from qfock.linalg import pin_blas_threads

CONFIG = {
    "space": {
        "q": [[0.3, -0.2], [-0.2, 0.55]],
        "blocks": [{"kind": "rotation", "lam": 2.0}, {"kind": "fixed"}],
    },
    "fock": {"n_max": 3},
    "seed": 20240817,
    "experiments": {
        "modular": {"times": [0.3, 1.0], "pairs": 3},
        "multipliers": {"steps": 10},
        "ultra": {"m_list": [2, 3, 4, 5, 6]},
    },
}


def main():
    pin_blas_threads()  # one BLAS thread, as the CLI runs: same digits anywhere
    config = normalize_config(CONFIG)
    print("configuration hash (output directory excluded):", config_hash(config)[:16], "...")

    with tempfile.TemporaryDirectory() as scratch:
        scratch = pathlib.Path(scratch)
        path = scratch / "run.yaml"
        path.write_text(yaml.safe_dump(CONFIG))

        print("\nvalidate:")
        code = qfock_main(["validate", "--config", str(path)])
        print("  exit code", code, "(normalized echo above)")

        out = scratch / "reports"
        print("\nrun all experiments:")
        code = qfock_main(["run", "all", "--config", str(path), "--out", str(out)])
        print("  exit code", code)

        manifest = json.loads((out / "manifest.json").read_text())
        print("\nmanifest: seed %d, wall time %.2fs, reports %s"
              % (manifest["seed"], manifest["wall_time_seconds"], sorted(manifest["reports"])))

        print("\nsummary lines from each report:")
        for name in sorted(manifest["reports"]):
            lines = (out / manifest["reports"][name]).read_text().splitlines()
            tail = lines[lines.index("# summary") + 1 :]
            shown = [line for line in tail if not line.startswith("config_hash")]
            print("  %s: %s" % (name, "; ".join(shown)))

        again = scratch / "again"
        qfock_main(["run", "all", "--config", str(path), "--out", str(again)])
        same = all(
            (out / f"{name}.csv").read_bytes() == (again / f"{name}.csv").read_bytes()
            for name in manifest["reports"]
        )
        print("\nsecond run into a fresh directory is byte-identical:", same)


if __name__ == "__main__":
    main()
