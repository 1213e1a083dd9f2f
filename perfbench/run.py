"""Run one workload of the daechain benchmark, check its outputs, print its metrics.

    python3 perfbench/run.py --workload threads2 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 [--trace 1]

Run from the repository root; the package is imported from ``src/``.

Every run cycles, in one process with one caller, through the reps of four
families of work (see workloads.py): train_small, chains_wide, oracle_grid
and cli_pipeline. The two workloads are the same cycle at two
BLAS thread counts, set in this process's own environment before numpy
loads: ``threads2`` uses min(2, usable CPUs) threads, ``threads1`` one.
One thread speeds up small-matrix training and slows 1e5-row sampling, so
the two workloads pull in opposite directions on the same code.

With ``--trace 0`` the cycle repeats for ``--seconds`` after a warm-up (at
least MIN_CYCLES times, stopping at the first rep past the deadline) and
the run reports every end-to-end metric of BENCHMARK.json, each the median
of its samples; ``setup_s`` is the median of three fresh interpreters that
each set up every family. With ``--trace 1`` untraced and traced cycles
alternate and the run reports the per-layer metrics of BENCHMARK.json.
The last line of standard output is one JSON object; a human-readable table
precedes it, and the full record (versions, thread settings, raw and
calibrated samples, output digests, spans) goes to ``perfbench/results/``.
A failed output check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
WORKLOADS = {"threads2": 2, "threads1": 1}  # BLAS threads, capped at the usable CPUs
FAMILY_NAMES = ("train_small", "chains_wide", "oracle_grid", "cli_pipeline")
# One cycle. train_small's rep is the shortest, so it runs twice to get as
# many samples per run as the others.
CYCLE = ("train_small", "chains_wide", "oracle_grid", "train_small", "cli_pipeline")
SETUP_REPS = 3
MIN_CYCLES = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a fresh interpreter that only sets up, for setup_s
    p.add_argument("--role", choices=("run", "setup"), default="run", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def summary(values):
    """Median, the highest percentile with at least ten samples beyond it (else max), and n."""
    vs = sorted(values)
    n = len(vs)
    out = {"median": statistics.median(vs), "n": n}
    if n >= 20:
        pct = int(100 * (n - 10) / n)
        out[f"p{pct}"] = vs[min(n - 1, int(pct / 100 * n))]
    else:
        out["max"], out["min"] = vs[-1], vs[0]
    return out


def machine_record(args, threads, inherited):
    import numpy as np

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "not installed"

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    return {
        "git_sha": sha, "python": platform.python_version(), "numpy": np.__version__,
        "scipy": version("scipy"), "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": threads, "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"], "inherited_thread_env": inherited,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
    }


class Ledger:
    """Counts operations, checks digests across reps, keeps every sample."""

    def __init__(self, e2e_names, calibrate: bool):
        self.e2e_names = e2e_names
        self.calibrate = calibrate
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, list[str]] = {}
        self.samples: dict[str, list[float]] = {}
        self.raw: dict[str, list[float]] = {}
        self.kernel_times: dict[str, list[float]] = {}
        self.extras: dict[str, list[float]] = {}

    def op(self, family, tracer=None):
        """Run one rep of family (traced if a tracer is given), then check it untraced.

        Returns the rep's wall time, or None if it failed.
        """
        from stopwatch import Stopwatch
        from workloads import no_span

        self.attempted += 1
        watch = Stopwatch(family.kernel, self.calibrate)
        try:
            with tracer.installed() if tracer else contextlib.nullcontext():
                start = time.perf_counter()
                outputs = family.run(watch, tracer.span if tracer else no_span)
                wall = time.perf_counter() - start
            digest, problems, extra = family.check(outputs)
        except Exception:
            self.fail(f"{family.name}: {traceback.format_exc()}")
            return None
        seen = self.digests.setdefault(family.name, [])
        if seen and digest != seen[0]:
            problems = problems + [f"output digest {digest[:12]} differs from first rep {seen[0][:12]}"]
        seen.append(digest)
        if problems:
            self.fail(f"{family.name}: " + "; ".join(problems))
            return None
        self.add(watch)
        for key, value in extra.items():
            (self.samples if key in self.e2e_names else self.extras).setdefault(key, []).append(value)
        return wall

    def add(self, watch):
        self.kernel_times.setdefault(watch.kernel, []).extend(watch.kernel_times)
        # "name@part" samples (one per oracle sigma sweep) pool into metric "name"
        for key, value in watch.samples.items():
            name = key.split("@")[0]
            self.samples.setdefault(name, []).append(value)
            self.raw.setdefault(name, []).append(watch.raw[key])

    def fail(self, message):
        self.failed += 1
        self.problems.append(message)
        print(f"CHECK FAILED {message}", file=sys.stderr)


def timed_setups(args, ledger):
    """Time fresh interpreters from spawn to the end of set-up and warm-up."""
    from stopwatch import Stopwatch

    for _ in range(SETUP_REPS):
        ledger.attempted += 1
        cmd = [sys.executable, str(Path(__file__)), "--role", "setup",
               "--workload", args.workload, "--seed", str(args.seed)]
        watch = Stopwatch("process", ledger.calibrate)
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate()
        if line.strip() != "ready" or proc.returncode != 0:
            ledger.fail(f"set-up process exited {proc.returncode}: {err[-500:]}")
        else:
            watch.record("setup_s", elapsed)
            ledger.add(watch)


def import_times(reps=3):
    """Self import time of numpy, scipy and daechain modules, from -X importtime."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    runs = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import daechain"],
                              env=env, capture_output=True, text=True, check=True)
        sums = {"numpy": 0.0, "scipy": 0.0, "daechain": 0.0}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            top = name.strip().split(".")[0]
            if top in sums:
                sums[top] += int(self_us) / 1e6
        runs.append(sums)
    return {f"import.{k}{'_self' if k == 'daechain' else ''}_s":
            statistics.median(r[k] for r in runs) for k in sums}


def set_up(families, inprocess=False):
    for family in families.values():
        family.inprocess = inprocess
        family.setup()
        family.warmup()


def run_untraced(args, families, ledger):
    timed_setups(args, ledger)
    set_up(families)
    deadline = time.perf_counter() + args.seconds
    reps = 0
    # stop at the first rep boundary past the deadline, after MIN_CYCLES cycles
    while not ledger.failed and (reps < MIN_CYCLES * len(CYCLE) or time.perf_counter() < deadline):
        ledger.op(families[CYCLE[reps % len(CYCLE)]])
        reps += 1
    return {k: statistics.median(v) for k, v in ledger.samples.items()}, reps / len(CYCLE)


def run_traced(args, families, ledger):
    """Alternate untraced and traced cycles; per-layer metrics per family."""
    from layers import LAYER_METRICS, metric_name, span_metrics
    from tracing import Tracer

    set_up(families, inprocess=True)
    tracers = {name: Tracer() for name in families}
    walls = {(name, traced): [] for name in families for traced in (False, True)}
    deadline = time.perf_counter() + args.seconds
    cycles = 0
    # even cycles untraced, odd cycles traced; at least one of each
    while (time.perf_counter() < deadline or cycles < 2) and not ledger.failed:
        traced = cycles % 2 == 1
        cycles += 1
        for family in (families[n] for n in CYCLE):
            tracer = tracers[family.name] if traced else None
            if tracer:
                tracer.op_id = len(walls[family.name, True])
            wall = ledger.op(family, tracer)
            if wall is not None:
                walls[family.name, traced].append(wall)
    metrics = {metric_name(f, n): 0.0 for f, n, _, _ in LAYER_METRICS}
    if ledger.failed:
        return metrics, tracers, cycles
    for name in families:
        metrics.update(span_metrics(tracers[name], len(walls[name, True]), name))
        off, on = statistics.median(walls[name, False]), statistics.median(walls[name, True])
        metrics[metric_name(name, "trace.untraced_op_s")] = off
        metrics[metric_name(name, "trace.traced_op_s")] = on
        metrics[metric_name(name, "trace.overhead_s")] = on - off
    metrics.update({metric_name("cli_pipeline", k): v for k, v in import_times().items()})
    metrics[metric_name("train_small", "models.dae_oracle_gap")] = statistics.median(
        ledger.extras["dae_oracle_gap"])
    return metrics, tracers, cycles


def run_all(args):
    """Every workload in its own process; exit nonzero if any check fails."""
    results, ok = {}, True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        ok &= proc.returncode == 0 and bool(result and result["correct"])
        results[name] = result
    attempted = sum(r["attempted"] for r in results.values() if r)
    failed = sum(r["failed"] for r in results.values() if r)
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "workloads": results}))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "daechain" / "__init__.py").is_file() or not SPEC_FILE.is_file():
        print(f"error: run from a daechain checkout; {SRC / 'daechain'} or {SPEC_FILE} is missing",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    # Thread settings go into this process's environment (inherited by its
    # children) before numpy loads, never anywhere machine-wide.
    inherited = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    threads = min(WORKLOADS[args.workload], len(os.sched_getaffinity(0)))
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = str(threads)
    sys.path.insert(0, str(SRC))

    from workloads import FAMILIES

    workdir = HERE / ".work" / f"{args.workload}-{args.role}-{os.getpid()}"
    try:
        families = {n: FAMILIES[n](args.seed, workdir / n) for n in FAMILY_NAMES}
        if args.role == "setup":
            set_up(families)
            print("ready", flush=True)
            return 0
        return report(args, families, threads, inherited)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


def report(args, families, threads, inherited):
    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    wanted = e2e if args.trace == 0 else {m["name"]: m["unit"] for m in spec["per_layer"]}
    record = machine_record(args, threads, inherited)
    ledger = Ledger(e2e, calibrate=not args.trace)
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    stem = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, tracers, cycles = run_traced(args, families, ledger)
        for name, tracer in tracers.items():
            tracer.write(results_dir / f"{stem.name}-{name}.spans.csv")
    else:
        metrics, cycles = run_untraced(args, families, ledger)

    print(f"daechain benchmark: workload {args.workload} ({threads} BLAS threads), seed {args.seed}, "
          f"{cycles:.3g} cycles in {args.seconds:g} s, trace {args.trace}")
    print("record: " + ", ".join(f"{k}={v}" for k, v in record.items()))
    for name, unit in wanted.items():
        if name in metrics:
            where = ""
            if name in ledger.samples and not args.trace:
                where = "  [" + ", ".join(f"{k} {v:.6g}" for k, v in summary(ledger.samples[name]).items()) + "]"
            print(f"  {name:48s} {metrics[name]:>14.6g} {unit}{where}")
    for key, values in sorted(ledger.extras.items()):
        print(f"  (info) {key:41s} {statistics.median(values):>14.6g}  [median of {len(values)}]")
    print(f"  (info) failed_frac {ledger.failed}/{ledger.attempted}"
          f" = {ledger.failed / max(ledger.attempted, 1):.4g}")
    for name, digests in ledger.digests.items():
        print(f"  (info) digest {name} {digests[0]} x{len(digests)}")

    missing = sorted(set(wanted) - set(metrics))
    correct = ledger.failed == 0 and not missing
    if missing and not ledger.failed:
        print(f"error: no value for {missing}", file=sys.stderr)
    stem.with_suffix(".json").write_text(json.dumps({
        "record": record, "correct": correct, "attempted": ledger.attempted,
        "failed": ledger.failed, "problems": ledger.problems, "metrics": metrics,
        "samples": ledger.samples, "raw_samples": ledger.raw, "kernel_times": ledger.kernel_times,
        "summaries": {k: summary(v) for k, v in ledger.samples.items()},
        "extras": ledger.extras, "digests": ledger.digests,
    }, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in wanted.items() if n in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
