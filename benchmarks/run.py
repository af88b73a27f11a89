"""tcmsim benchmark: end-to-end CLI workloads and a traced per-module run.

Usage (from the repository root):

    python3 benchmarks/run.py --workload literal-m3 --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seconds 30 --trace 0

One client in a closed loop: run.py starts one ``python -m tcmsim``
child, waits for it to exit, checks its CSV, and only then starts the
next.  Each child has BLAS and OpenMP pinned to one thread.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units
come from BENCHMARK.json.  See benchmarks/README.md for the workloads and
what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import check  # noqa: E402

# every run ends well inside the 180 s a benchmark run may take
RUN_DEADLINE_S = 165.0
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 8.0
IMPORT_PROBES = 3

CHILD_ENV = {
    "PYTHONPATH": os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p),
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _fmt(x: float) -> str:
    """The CLI's CSV number format."""
    return f"{float(x):.12g}"


@dataclass(frozen=True)
class Workload:
    """One CLI invocation family.  ``shift`` is the relative range from
    which a non-canonical seed draws the per-mode mean; each range keeps
    the coherent truncation window of the canonical mean, so every seed
    does the same amount of work (same multisets, configs and sectors)
    on different numbers.  The means 25 and 5 sit at an edge of their
    window's range, hence the one-sided shifts."""

    name: str
    kind: str
    flags: tuple
    mean: float
    shift: tuple
    gt_max: float = 0.0
    steps: int = 0
    sweep_gts: tuple = ()
    sweep_modes: tuple = ()

    def mean_for(self, seed: int) -> float:
        if seed == 0:
            return self.mean
        lo, hi = self.shift
        return round(self.mean * (1.0 + random.Random(f"{self.name}/{seed}").uniform(lo, hi)), 6)

    def invocation(self, seed: int, setup: bool) -> tuple[list, list]:
        """CLI arguments (without --out) and the row keys the CSV must have.
        The set-up invocation cuts the time grid to its minimum."""
        args = [*self.flags, "--mean", repr(self.mean_for(seed))]
        if self.kind == "sweep":
            gts = self.sweep_gts[:1] if setup else self.sweep_gts
            args += ["--sweep-gt", ",".join(map(repr, gts)),
                     "--sweep-modes", ",".join(map(str, self.sweep_modes))]
            keys = [(_fmt(m), _fmt(gt)) for m in self.sweep_modes for gt in sorted(gts)]
        else:
            steps = 2 if setup else self.steps
            args += ["--gt-max", repr(self.gt_max), "--gt-steps", str(steps)]
            step = self.gt_max / (steps - 1)   # numpy.linspace's arithmetic
            keys = [(_fmt(i * step),) for i in range(steps - 1)] + [(_fmt(self.gt_max),)]
        return args, keys

    def reference(self) -> str:
        with open(os.path.join(BENCH_DIR, "reference", f"{self.name}.csv")) as fh:
            return fh.read()


WORKLOADS = {w.name: w for w in (
    Workload("literal-m3", "run", ("run", "--modes", "3", "--convention", "literal"),
             mean=25.0, shift=(0.005, 0.02), gt_max=10.0, steps=1200),
    Workload("compare-m2", "compare",
             ("compare-oracle", "--modes", "2", "--convention", "consistent"),
             mean=5.0, shift=(-0.02, -0.005), gt_max=15.0, steps=1200),
    Workload("sweep-m6", "sweep",
             ("sweep-modes", "--sigma-width", "4", "--coverage-epsilon", "1e-6"),
             mean=15.0, shift=(0.005, 0.025), sweep_gts=(1.5, 2.25, 3.0),
             sweep_modes=(1, 2, 3, 4, 5, 6)),
)}


@dataclass
class Outcome:
    wall_s: float
    rss_mb: float
    code: int
    problems: list
    text: str | None   # the CSV written, if any

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.problems


class Harness:
    """Work directory, deadline and the attempted/failed tally of one run."""

    def __init__(self, work: str):
        self.work = work
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.attempted = 0
        self.failed = 0

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def spawn(self, argv: list, stdout_name: str = "stdout.txt",
              stderr_name: str = "stderr.txt") -> tuple[float, float, int]:
        """Run one child to completion: (wall seconds, peak RSS in MB, exit
        code).  The child is killed if it would overrun the run deadline."""
        env = dict(os.environ, **CHILD_ENV)
        with open(os.path.join(self.work, stdout_name), "wb") as out, \
                open(os.path.join(self.work, stderr_name), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
            killer = threading.Timer(max(self.remaining(), 1.0), proc.kill)
            killer.start()
            wall = None
            try:
                # wait without reaping, so the timer can never signal a reused pid
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                wall = time.perf_counter() - start
            finally:
                killer.cancel()
                killer.join()
                if wall is None:   # interrupted: stop and reap the child
                    proc.kill()
                    proc.wait()
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def run_cli(self, workload: Workload, seed: int, setup: bool,
                tracer_out: str | None = None) -> Outcome:
        """One checked CLI invocation; failures count toward the tally."""
        args, keys = workload.invocation(seed, setup)
        out = os.path.join(self.work, f"{workload.name}.csv")
        if os.path.exists(out):
            os.unlink(out)
        if tracer_out is None:
            argv = [sys.executable, "-m", "tcmsim", *args, "--out", out]
        else:
            argv = [sys.executable, os.path.join(BENCH_DIR, "trace_child.py"),
                    tracer_out, *args, "--out", out]
        wall, rss, code = self.spawn(argv)
        text = None
        if os.path.exists(out):
            with open(out) as fh:
                text = fh.read()
        if code != 0:
            problems = [f"exit code {code}"]
        elif text is None:
            problems = ["no CSV written"]
        else:
            reference = workload.reference() if seed == 0 else None
            problems = check.check_csv(workload.kind, text, keys, reference)
        self.attempted += 1
        if problems:
            self.failed += 1
            with open(os.path.join(self.work, "stderr.txt"), errors="replace") as fh:
                tail = fh.read()[-2000:]
            print(f"{workload.name}: FAILED {' '.join(args)}\n  "
                  + "\n  ".join(problems[:10]) + (f"\n  stderr: {tail}" if tail else ""),
                  file=sys.stderr)
        return Outcome(wall, rss, code, problems, text)


def _median(outcomes: list, attr: str) -> float:
    good = [getattr(o, attr) for o in outcomes if o.ok] or \
        [getattr(o, attr) for o in outcomes]
    return statistics.median(good)


def measure(harness: Harness, workload: Workload, seed: int, seconds: float) -> dict:
    """End-to-end metrics from a closed loop that alternates set-up and full
    invocations, so both sample the same stretch of machine time.  Full
    invocations run until they have used about ``seconds``: a new one
    starts only if it should fit, and at least one always runs.  Set-up
    invocations run until there are SETUP_MIN_REPEATS of them and they
    add up to SETUP_MIN_SECONDS, so the cheap ones get more samples."""
    harness.spawn([sys.executable, "-c", "import tcmsim.cli"])  # warm the file cache
    setups, fulls = [], []

    def setup_wanted():
        return (len(setups) < SETUP_MIN_REPEATS
                or sum(o.wall_s for o in setups) < SETUP_MIN_SECONDS)

    while True:
        if setup_wanted():
            setups.append(harness.run_cli(workload, seed, setup=True))
        fulls.append(harness.run_cli(workload, seed, setup=False))
        typical = statistics.median(o.wall_s for o in fulls)
        used = sum(o.wall_s for o in fulls)
        if used + typical > seconds or typical > harness.remaining() - 20.0:
            break
    while setup_wanted() and harness.remaining() > 20.0:
        setups.append(harness.run_cli(workload, seed, setup=True))
    return {
        "wall_s": _median(fulls, "wall_s"),
        "setup_s": _median(setups, "wall_s"),
        "peak_rss_mb": _median(fulls, "rss_mb"),
        "_samples": (len(fulls), len(setups)),
    }


def aggregate_spans(path: str) -> dict:
    """calls, total_s, self_s and errors per span name; a span's self time
    is its duration minus the durations of its direct children."""
    with open(path) as fh:
        data = json.load(fh)
    spans = data["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = {}
    for i, (name_index, start, end, _, error) in enumerate(spans):
        s = stats.setdefault(data["names"][name_index],
                             {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0})
        s["calls"] += 1
        s["total_s"] += end - start
        s["self_s"] += end - start - child[i]
        s["errors"] += bool(error)
    return {"spans": stats, "counts": data["counts"]}


def import_probes(harness: Harness) -> dict:
    """cli.import_s: median time to import tcmsim.cli in a fresh process;
    cli.import_scipy_signal_s: scipy.signal's cumulative share per
    ``python -X importtime``."""
    code = ("import time; t = time.perf_counter(); import tcmsim.cli; "
            "print(repr(time.perf_counter() - t))")
    harness.spawn([sys.executable, "-c", "import tcmsim.cli"])  # warm the file cache
    times = []
    for _ in range(IMPORT_PROBES):
        harness.spawn([sys.executable, "-c", code], stdout_name="probe.txt")
        with open(os.path.join(harness.work, "probe.txt")) as fh:
            times.append(float(fh.read()))
    harness.spawn([sys.executable, "-X", "importtime", "-c", "import tcmsim.cli"],
                  stderr_name="importtime.txt")
    scipy_signal_us = 0
    with open(os.path.join(harness.work, "importtime.txt")) as fh:
        for line in fh:
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "scipy.signal":
                scipy_signal_us = int(parts[1])
    return {"cli.import_s": statistics.median(times),
            "cli.import_scipy_signal_s": scipy_signal_us * 1e-6}


def trace(harness: Harness, workload: Workload) -> dict:
    """Per-layer metrics from one traced canonical invocation.  The traced
    run always uses the canonical (seed 0) inputs, so its counts repeat
    exactly and its CSV can be compared byte for byte with the reference.
    It does a fixed amount of work; ``--seconds`` does not apply."""
    values = import_probes(harness)
    plain = harness.run_cli(workload, 0, setup=False)
    reference = workload.reference()
    changed = check.rows_changed(plain.text, reference) if plain.text is not None \
        else len(reference.split("\n"))
    spans_path = os.path.join(harness.work, "spans.json")
    traced = harness.run_cli(workload, 0, setup=False, tracer_out=spans_path)
    layers = aggregate_spans(spans_path) if traced.code == 0 else \
        {"spans": {}, "counts": {}}
    for name, s in layers["spans"].items():
        for key, v in s.items():
            values[f"{name}.{key}"] = v
    values.update(layers["counts"])
    state_calls = values.get("oracle.ExactEvolver.state_at.calls", 0)
    values["oracle.norm_evals_per_state"] = (
        values.get("oracle.OracleState.total_norm.calls", 0) / state_calls
        if state_calls else 0.0)
    values["cli.csv_rows_changed"] = changed
    values["trace.untraced_wall_s"] = plain.wall_s
    values["trace.overhead_s"] = traced.wall_s - plain.wall_s
    return values


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _metrics(spec_entries: list, values: dict) -> dict:
    """Exactly the metrics BENCHMARK.json lists, in its units; a listed
    metric no span produced (an entry point never called) reads 0."""
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in spec_entries}


def _machine_line() -> str:
    return (f"machine: nproc={os.cpu_count()} python={sys.version.split()[0]} "
            f"numpy={metadata.version('numpy')} scipy={metadata.version('scipy')} "
            f"blas_threads={CHILD_ENV['OPENBLAS_NUM_THREADS']} (OMP/OPENBLAS/MKL_NUM_THREADS)")


def run_workload(harness: Harness, workload: Workload, seed: int, seconds: float,
                 traced: bool, spec: dict) -> dict:
    before_attempted, before_failed = harness.attempted, harness.failed
    harness.deadline = time.monotonic() + RUN_DEADLINE_S
    if traced:
        values = trace(harness, workload)
        metrics = _metrics(spec["per_layer"], values)
        top = sorted(((k[:-7], v) for k, v in values.items() if k.endswith(".self_s")),
                     key=lambda kv: -kv[1])[:6]
        print(f"{workload.name} traced: overhead {values['trace.overhead_s']:.3f} s on "
              f"{values['trace.untraced_wall_s']:.3f} s; top self time: "
              + ", ".join(f"{k} {v:.3f} s" for k, v in top))
    else:
        values = measure(harness, workload, seed, seconds)
        metrics = _metrics(spec["end_to_end"], values)
    attempted = harness.attempted - before_attempted
    failed = harness.failed - before_failed
    if not traced:
        print(f"{workload.name} (seed {seed}, mean {workload.mean_for(seed)!r}, "
              f"{values['_samples'][0]} full + {values['_samples'][1]} set-up runs): "
              + "  ".join(f"{k} {m['value']:.4f} {m['unit']}" for k, m in metrics.items())
              + f"  fail_ratio {failed}/{attempted} = {failed / attempted:g} "
              "(failed/attempted invocations)")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its child and removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    missing = [p for p in ("src/tcmsim/cli.py", "BENCHMARK.json")
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"cannot benchmark: {', '.join(missing)} not found under {ROOT}",
              file=sys.stderr)
        return 2
    spec = _spec()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    work = os.path.join(ROOT, ".bench_build", f"tcmsim-{os.getpid()}")
    os.makedirs(work)
    harness = Harness(work)
    print(_machine_line())
    try:
        results = {n: run_workload(harness, WORKLOADS[n], args.seed, args.seconds,
                                   bool(args.trace), spec) for n in names}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = results[names[0]] if len(names) == 1 else \
        {f"{n}/{k}": m for n, r in results.items() for k, m in r.items()}
    print(json.dumps({"correct": harness.failed == 0 and harness.attempted > 0,
                      "attempted": harness.attempted, "failed": harness.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
