"""qfock benchmark: drive the CLI on a seeded workload and report metrics.

    python3 perfbench/run.py --workload {net,cap,averaging} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout (it needs ``src/qfock``).  The
program is started as ``python3 -m qfock`` with ``PYTHONPATH=src``, one
subprocess at a time, on configs generated from the seed.  The children
get the caller's environment minus the BLAS thread variables, so the
thread policy measured is the program's own.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of an in-process traced
run (see traced_cli.py).  The last line of standard output is one JSON
object; the lines before it are a readable summary.  Everything the run
writes goes under ``.perfbench/`` in the checkout; per-run results stay in
``.perfbench/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import yaml

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from check import check_reports, experiments_of  # noqa: E402
from workloads import WORKLOAD_NAMES, generate  # noqa: E402

DEFAULT_SEED = 0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up is mostly interpreter start, the noisiest thing measured: two
# samples per pass keep its median steady
SETUP_PER_PASS = 2
INVOCATION_TIMEOUT_S = 150
# refuse a workload whose predicted basis-word cache exceeds this share of
# MemAvailable: the machine is shared and an out-of-memory kill is not a result
MEMORY_SHARE = 0.5

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

_TIMED_LAYERS = (
    "cli.experiment_s.fock",
    "cli.experiment_s.moments",
    "cli.experiment_s.modular",
    "cli.experiment_s.multipliers",
    "cli.experiment_s.ultra",
    "config.load_s",
    "hilbert.build_space_s",
    "fock.build_s",
    "fock.min_p_eigenvalue_s",
    "fock.annihilation_s",
    "fock.creation_s",
    "wick.from_vector_s",
    "wick.span_operator_s",
    "wick.wick_operator_s",
    "moments.matrix_s",
    "moments.pairings_s",
    "modular.kms_residual_s",
    "modular.flow_s",
    "modular.fock_unitary_s",
    "multipliers.norm_estimate_s",
    "multipliers.net_element_s",
    "multipliers.defect_s",
    "linalg.op_norm_s",
    "linalg.min_gen_eig_s",
    "ultra.convergence_s",
    "ultra.enumerate_s",
)
# span counts reported as call counts: metric name -> span name
_CALL_COUNTS = {
    "fock.annihilation_calls": "fock.annihilation_s",
    "wick.from_vector_calls": "wick.from_vector_s",
    "wick.span_operator_calls": "wick.span_operator_s",
    "multipliers.norm_estimate_calls": "multipliers.norm_estimate_s",
    "linalg.op_norm_calls": "linalg.op_norm_s",
    "ultra.enumerate_calls": "ultra.enumerate_s",
}
_COUNTERS = (
    "fock.total_dim",
    "wick.basis_word_calls",
    "wick.cache_bytes_computed",
    "linalg.eigh_n3_computed",
)
# self time grouped by module; "cli" holds import and report writing
LAYERS = (
    "cli", "config", "hilbert", "fock", "wick", "moments",
    "modular", "multipliers", "linalg", "ultra",
)


def per_layer_units() -> dict:
    """Every per-layer metric with its unit, in report order."""
    units = {name: "s" for name in _TIMED_LAYERS}
    units.update({name: "count" for name in _CALL_COUNTS})
    units.update({name: "count" for name in _COUNTERS})
    units["wick.cache_bytes_computed"] = "B"
    units["wick.basis_word_hit_ratio"] = "ratio"
    units.update({f"self.{layer}_s": "s" for layer in LAYERS})
    units["trace_overhead_s"] = "s"
    units["single_thread.run_s"] = "s"
    units["single_thread.cpu_s"] = "s"
    return units


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _mem_available_bytes() -> int:
    with open("/proc/meminfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024
    raise BenchError("MemAvailable missing from /proc/meminfo")


def predicted_cache_bytes(config: dict, experiment: str) -> int:
    """Basis-word cache one invocation fills: words realized x D^2 x 16 B.

    The amplified-norm scan realizes every basis word of every level (D
    words); the modular exchange and flow checks realize the words of
    levels 1 .. max(1, n_max // 2); the other experiments use no cache.
    """
    blocks = config["space"]["blocks"]
    dim = sum(2 if b["kind"] == "rotation" else 1 for b in blocks)
    n_max = config["fock"]["n_max"]
    total = sum(dim**n for n in range(n_max + 1))
    words = 0
    for name in experiments_of(experiment):
        if name == "multipliers":
            words = max(words, total)
        elif name == "modular":
            words = max(words, sum(dim**n for n in range(1, max(1, n_max // 2) + 1)))
    return words * total * total * 16


def child_env(root: str, single_thread: bool = False) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if single_thread:
        env.update({k: "1" for k in BLAS_ENV})
    return env


class Sample:
    """One invocation: wall and CPU seconds, max RSS, and its trace if traced."""

    def __init__(self, wall, cpu, rss_mb, trace=None):
        self.wall, self.cpu, self.rss_mb, self.trace = wall, cpu, rss_mb, trace


def spawn(argv, cwd, env, log_path) -> tuple:
    """Run one child to completion: (wall s, cpu s, max RSS MB, exit code or None on timeout)."""
    expired = threading.Event()
    with open(log_path, "wb") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=log)

        def kill():
            expired.set()
            proc.kill()

        timer = threading.Timer(INVOCATION_TIMEOUT_S, kill)
        timer.start()
        try:
            # wait4 gives this child's own rusage, not the sum over children
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if expired.is_set() else proc.returncode
    # ru_maxrss is in KiB on Linux
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, code


class Bench:
    def __init__(self, root, workload, seed, reference):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.work = os.path.join(root, ".perfbench", f"{workload.name}-{seed}-{os.getpid()}")
        self.configs = {}
        self.attempted = 0
        self.failures = []
        self.counter = 0
        os.makedirs(self.work, exist_ok=True)
        for file_name, text in workload.configs.items():
            path = os.path.join(self.work, file_name)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            self.configs[file_name] = (path, yaml.safe_load(text))

    def invoke(self, command, config_name, traced=False, single_thread=False) -> Sample:
        """Run `qfock <command>` on one generated config and check its reports."""
        self.counter += 1
        tag = os.path.join(self.work, f"inv{self.counter}")
        config_path, config = self.configs[config_name]
        args = list(command) + ["--config", config_path]
        if command[0] == "run":
            args += ["--seed", str(self.seed), "--out", tag + ".out"]
        if traced:
            argv = [sys.executable, os.path.join(HERE, "traced_cli.py"), tag + ".trace.json"]
        else:
            argv = [sys.executable, "-m", "qfock"]
        env = child_env(self.root, single_thread)
        wall, cpu, rss, code = spawn(argv + args, self.root, env, tag + ".log")
        self.attempted += 1
        problems = []
        if code is None:
            problems.append(f"timed out after {INVOCATION_TIMEOUT_S} s")
        elif code != 0:
            with open(tag + ".log", encoding="utf-8", errors="replace") as handle:
                tail = handle.read()[-400:].strip()
            problems.append(f"exit code {code}: {tail}")
        elif command[0] == "run":
            ref = None
            if self.reference is not None:
                ref = self.reference.get(config_name, {})
            found, _ = check_reports(tag + ".out", config, command[1], ref)
            problems += found
        trace = None
        if traced and code == 0:
            with open(tag + ".trace.json", encoding="utf-8") as handle:
                trace = json.load(handle)
        if problems:
            self.failures.append(f"{' '.join(command)} on {config_name}: " + "; ".join(problems))
        shutil.rmtree(tag + ".out", ignore_errors=True)
        for suffix in (".trace.json", ".log"):
            if os.path.exists(tag + suffix):
                os.remove(tag + suffix)
        return Sample(wall, cpu, rss, trace)

    def run_pass(self, traced=False, single_thread=False) -> list:
        return [
            self.invoke(("run", inv.experiment), inv.config, traced, single_thread)
            for inv in self.workload.invocations
        ]

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _pass_totals(samples) -> tuple:
    return sum(s.wall for s in samples), sum(s.cpu for s in samples)


def tail_percentile(values) -> tuple:
    """Highest percentile with at least ten samples beyond it, or (None, None)."""
    n = len(values)
    if n < 11:
        return None, None
    ordered = sorted(values)
    rank = n - 11  # ten samples lie above index n - 11
    return round(100.0 * (rank + 1) / n, 1), ordered[rank]


def aggregate_trace(trace: dict) -> dict:
    """Inclusive and self seconds per span name, span counts, counters."""
    spans = trace["spans"]
    inclusive, self_time, calls = {}, {}, {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:  # outermost span of this name
            inclusive[name] = inclusive.get(name, 0.0) + end - start
    return {"inclusive": inclusive, "self": self_time, "calls": calls, "counts": trace["counts"]}


def layer_metrics(traced_pass) -> dict:
    """Per-layer metrics of one traced pass, summed over its invocations."""
    out = {name: 0.0 for name in _TIMED_LAYERS}
    out.update({name: 0 for name in _CALL_COUNTS})
    out.update({name: 0 for name in _COUNTERS})
    out.update({f"self.{layer}_s": 0.0 for layer in LAYERS})
    hits = 0
    for sample in traced_pass:
        agg = aggregate_trace(sample.trace)
        for name in _TIMED_LAYERS:
            out[name] += agg["inclusive"].get(name, 0.0)
        for metric, span in _CALL_COUNTS.items():
            out[metric] += agg["calls"].get(span, 0)
        for name in _COUNTERS:
            value = agg["counts"].get(name, 0)
            if name == "fock.total_dim":
                out[name] = max(out[name], value)
            else:
                out[name] += value
        hits += agg["counts"].get("wick.basis_word_hits", 0)
        for name, seconds in agg["self"].items():
            out[f"self.{name.split('.')[0]}_s"] += seconds
    calls = out["wick.basis_word_calls"]
    out["wick.basis_word_hit_ratio"] = hits / calls if calls else 0.0
    return out


def environment_record(trace: dict) -> dict:
    return {
        "nproc": trace["nproc"],
        "versions": trace["versions"],
        "blas": trace["blas"],
        "blas_env_removed": list(BLAS_ENV),
    }


def run(args) -> dict:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qfock", "__init__.py")):
        raise BenchError(f"no qfock sources under {root}/src; run from a source checkout")
    workload = generate(args.workload, args.seed)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        reference = json.load(handle).get(args.workload, {}).get(str(args.seed))

    predicted = 0
    for inv in workload.invocations:
        config = yaml.safe_load(workload.configs[inv.config])
        predicted = max(predicted, predicted_cache_bytes(config, inv.experiment))
    available = _mem_available_bytes()
    if predicted > MEMORY_SHARE * available:
        raise BenchError(
            f"predicted basis-word cache {predicted / 2**20:.0f} MB exceeds"
            f" {MEMORY_SHARE:.0%} of MemAvailable ({available / 2**20:.0f} MB)"
        )

    bench = Bench(root, workload, args.seed, reference)
    try:
        # traced validation first: checks every config, compiles bytecode
        # before anything is timed, and records the environment
        env = None
        for name in workload.configs:
            sample = bench.invoke(("validate",), name, traced=True)
            if sample.trace is not None:
                env = environment_record(sample.trace)
        # set-up samples are interleaved with the passes, so that both
        # sample the same stretch of machine load
        setup, plain, traced = [], [], []
        started = time.perf_counter()
        while not plain or time.perf_counter() - started < args.seconds:
            for _ in range(SETUP_PER_PASS):
                setup.append(bench.invoke(("run", "fock"), workload.setup_config))
            plain.append(bench.run_pass())
            if args.trace:
                traced.append(bench.run_pass(traced=True))
        single = bench.run_pass(traced=True, single_thread=True) if args.trace else None
    finally:
        bench.close()

    walls = [_pass_totals(p)[0] for p in plain]
    cpus = [_pass_totals(p)[1] for p in plain]
    end_to_end = {
        "setup_s": statistics.median(s.wall for s in setup),
        "run_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": max(s.rss_mb for p in plain + [setup] for s in p),
    }
    pct, tail = tail_percentile(walls)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "error_rate": len(bench.failures) / bench.attempted,
        "failures": bench.failures,
        "reference_checked": reference is not None,
        "end_to_end": end_to_end,
        "run_s_samples": len(walls),
        "setup_s_passes": [s.wall for s in setup],
        "run_s_passes": walls,
        "cpu_s_passes": cpus,
        "run_s_tail": {"percentile": pct, "value": tail},
        "predicted_cache_mb": predicted / 2**20,
        "environment": env,
    }
    if args.trace:
        usable = [p for p in traced if all(s.trace is not None for s in p)]
        layers = {}
        if usable:
            per_pass = [layer_metrics(p) for p in usable]
            layers = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        traced_walls = [_pass_totals(p)[0] for p in traced]
        layers["trace_overhead_s"] = statistics.median(traced_walls) - end_to_end["run_s"]
        layers["single_thread.run_s"], layers["single_thread.cpu_s"] = _pass_totals(single)
        if single and all(s.trace is not None for s in single):
            result["single_thread_environment"] = environment_record(single[0].trace)
        result["per_layer"] = layers
        result["traced_passes"] = len(traced)
    return result


def report(result: dict) -> dict:
    """Print the readable summary; return the final JSON line's object."""
    trace = result["trace"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {trace}"
          f"  reference values {'checked' if result['reference_checked'] else 'absent for this seed'}")
    e2e = result["end_to_end"]
    print(f"  setup_s      {e2e['setup_s']:.4f} s   (median of {len(result['setup_s_passes'])} `qfock run fock`)")
    tail = result["run_s_tail"]
    tail_text = (f"p{tail['percentile']} {tail['value']:.4f} s" if tail["value"] is not None
                 else "no tail percentile (needs >= 11 passes)")
    print(f"  run_s        {e2e['run_s']:.4f} s   (median of {result['run_s_samples']} passes; {tail_text})")
    print(f"  cpu_s        {e2e['cpu_s']:.4f} s   (median, children's user + system)")
    print(f"  peak_rss_mb  {e2e['peak_rss_mb']:.1f} MB  (predicted basis-word cache"
          f" {result['predicted_cache_mb']:.1f} MB)")
    print(f"  error_rate   {result['error_rate']:.4f}  ({result['failed']} of {result['attempted']}"
          " invocations failed)")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    env = result["environment"]
    if env:
        blas = ", ".join(f"{b['library']} threads={b['threads']}" for b in env["blas"])
        print(f"  env: nproc {env['nproc']}, python {env['versions']['python']}, numpy"
              f" {env['versions']['numpy']}, scipy {env['versions']['scipy']}; {blas}")
    if trace:
        layers = result["per_layer"]
        ranked = sorted(LAYERS, key=lambda layer: -layers.get(f"self.{layer}_s", 0.0))
        print("  self time by layer: " + ", ".join(
            f"{layer} {layers.get(f'self.{layer}_s', 0.0):.3f}s" for layer in ranked))
        units = per_layer_units()
        metrics = {k: {"value": layers.get(k, 0.0), "unit": u} for k, u in units.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    line = report(result)
    results = os.path.join(os.getcwd(), ".perfbench", "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
