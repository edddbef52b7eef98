"""End-to-end and per-layer benchmark of the bjjsense CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src`` as
is (there is nothing to build).  The workload's inputs are generated from
the seed into ``.perfbench/`` under the checkout, which is removed again.

Each round starts fresh processes as a user would:

* ``python -m bjjsense.cli COMMAND --help`` (imports plus parser), every
  ``SETUP_EVERY``-th round, gives ``setup_s``;
* ``python -m bjjsense.cli COMMAND --config ... --out ...``, run through
  ``perfbench/launch.py``, gives ``cpu_s`` and ``peak_rss_mb``, and
  ``throughput``, output units per CPU second spent past start-up
  (interpreter start and imports), both measured in that one process;
* with ``--trace 1``, the same invocation again under
  ``perfbench/tracer.py``, which records a span around each layer call.

Times are CPU seconds (user plus system) of the child processes, scaled
to a reference speed of the host.  On a shared 2-vCPU virtual machine the
host's speed drifts with its other load, in stretches of tens of seconds to
minutes: a fixed single-threaded pipeline invocation took 3.0-5.0 CPU
seconds within ten minutes, and wall time moved by up to 40% between
identical runs.  The drift is shared by every process: in one set of ten
55-second runs the pipeline's median CPU time spread by 27% (quartile
distance over median), while its ratio to the CPU time of a fresh
interpreter starting the CLI, which mostly loads numpy and scipy, spread by
8%.  So each round also runs ``REFERENCE_TASK``, which loads those
libraries and no program code, and every reported time is multiplied by
``REFERENCE_S`` / the median CPU time of the reference task over the run:
it is the CPU time on a host where the reference task takes
``REFERENCE_S``.  Raw times are printed per round.

Rounds repeat until about ``--seconds`` have passed (at least
``MIN_ROUNDS``; no round is started that would end more than half a round
past the deadline) and every reported time is a median over rounds.  Every
CSV written is checked by the workload's correctness gate and must be
byte-identical across rounds; the result line's ``attempted`` and
``failed`` count output rows.
BLAS is pinned to one thread; the CLI runs at its default ``--threads``.
The last line of standard output is one JSON object with the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import NamedTuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from tracer import LAYERS, layer_names  # noqa: E402
from workloads import WORKLOADS, RowChecks, save_config  # noqa: E402

MIN_ROUNDS = {0: 3, 1: 2}
SETUP_EVERY = 2  # rounds per set-up probe
# A fixed task that runs no program code: a fresh interpreter loading the
# libraries the program is built on.  Each round times it once, and the
# reported times are scaled by REFERENCE_S / its median CPU time.
REFERENCE_TASK = "import numpy, scipy.linalg, scipy.optimize"
REFERENCE_S = 0.7
CHILD_TIMEOUT_S = 150.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)


class ProcessResult(NamedTuple):
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    startup_cpu_s: float = 0.0  # CPU seconds before the CLI's main, if known


def run_process(cmd: list[str], env: dict, cwd: str, stderr_path: str) -> ProcessResult:
    """Run one child to completion: wall time from spawn to reap, and the
    child's own CPU time and peak RSS."""
    with open(stderr_path, "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.DEVNULL,
                                stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcessResult(wall, usage.ru_utime + usage.ru_stime,
                         usage.ru_maxrss / 1024.0, proc.returncode)


def machine_facts(env: dict) -> dict:
    import scipy

    def read(path: str) -> str:
        try:
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError:
            return "unknown"

    cpu = "unknown"
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        if index.startswith("index"):
            d = os.path.join(base, index)
            caches[f"L{read(d + '/level')}{read(d + '/type')[0].lower()}"] = read(d + "/size")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": caches,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{scipy_blas.get('name')} {scipy_blas.get('version')}",
        "blas_threads": {k: env[k] for k in BLAS_ENV},
        "cli_threads": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


# ---------------------------------------------------------------------------
# span aggregation


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def _tail(durations: np.ndarray) -> tuple[float, float]:
    """Highest ladder percentile with >= 10 calls beyond it, and its value."""
    n = durations.size
    best = None
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10.0:
            best = p
    if best is None:
        return 0.0, 0.0
    return best, float(np.percentile(durations, best))


def layer_metrics(spans_path: str, traced_wall_s: float):
    """Per-layer totals, self times, tails and counters from one traced run.

    Returns the metrics, the absent layer names, and one line per layer
    naming the percentile its ``tail_ms`` reports and the call count.
    """
    data = np.load(spans_path)
    names = json.loads(str(data["names"]))
    absent = json.loads(str(data["absent"]))
    name, parent = data["name"], data["parent"]
    start, end, value = data["start"], data["end"], data["value"]
    dur = end - start
    children: dict[int, list[tuple[float, float]]] = {}
    for i in np.flatnonzero(parent >= 0):
        children.setdefault(int(parent[i]), []).append((start[i], end[i]))
    self_time = dur.copy()
    for p, spans in children.items():
        self_time[p] -= _covered(spans, start[p], end[p])
    out: dict[str, tuple[float, str]] = {}
    tails: list[str] = []
    module_self = {m: 0.0 for m in LAYERS}
    for k, full in enumerate(names):
        sel = name == k
        d = dur[sel]
        pct, tail = _tail(d)
        out[full] = (float(d.sum()), "s")
        out[f"{full}.calls"] = (int(sel.sum()), "count")
        out[f"{full}.self_s"] = (float(self_time[sel].sum()), "s")
        out[f"{full}.tail_ms"] = (1e3 * tail, "ms")
        if pct:
            tails.append(f"{full} p{pct:g} of {d.size} calls: {1e3 * tail:.4g} ms")
        module_self[full.split(".")[0]] += float(self_time[sel].sum())

    def counter(full: str) -> np.ndarray:
        return value[name == names.index(full)]

    def p50_ms(full: str) -> float:
        d = dur[name == names.index(full)]
        return 1e3 * float(np.median(d)) if d.size else 0.0

    ranks = counter("model.equilibrium_state")
    out["model.equilibrium_state.p50_ms"] = (p50_ms("model.equilibrium_state"), "ms")
    out["model.equilibrium_state.rank_mean"] = (
        float(ranks.mean()) if ranks.size else 0.0, "levels")
    out["criticality.scan_lambda.points"] = (
        int(counter("criticality.scan_lambda").sum()), "count")
    out["criticality.optimize_delta.out_of_tolerance"] = (
        int(counter("criticality.optimize_delta").sum()), "count")
    out["estimation.least_squares.nfev"] = (
        int(counter("estimation.least_squares").sum()), "count")
    out["estimation.fit_double_gaussian.p50_ms"] = (
        p50_ms("estimation.fit_double_gaussian"), "ms")
    out["estimation.fit_double_gaussian.unconverged"] = (
        int(counter("estimation.fit_double_gaussian").sum()), "count")
    out["estimation.bootstrap.replica_failures"] = (
        int(counter("estimation.bootstrap").sum()), "count")
    out["io.write_table.bytes"] = (int(counter("io.write_table").sum()), "bytes")
    out["io.read_series_csv.rows"] = (int(counter("io.read_series_csv").sum()), "count")
    # Worker threads run layers concurrently, so shares are of busy thread
    # time: every span's self time plus the main thread's time outside any
    # span (interpreter start, imports, CLI glue).
    outside = max(traced_wall_s - float(dur[parent < 0].sum()), 0.0)
    busy = float(self_time.sum()) + outside
    for m, s in module_self.items():
        out[f"{m}.self_frac"] = (s / busy, "fraction")
    out["trace.unattributed_frac"] = (outside / busy, "fraction")
    out["trace.absent"] = (len(absent), "count")
    return out, absent, tails


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in reporting order."""
    units = {}
    for full in layer_names():
        units.update({full: "s", f"{full}.calls": "count",
                      f"{full}.self_s": "s", f"{full}.tail_ms": "ms"})
    units.update({
        "model.equilibrium_state.p50_ms": "ms",
        "model.equilibrium_state.rank_mean": "levels",
        "criticality.scan_lambda.points": "count",
        "criticality.optimize_delta.out_of_tolerance": "count",
        "estimation.least_squares.nfev": "count",
        "estimation.fit_double_gaussian.p50_ms": "ms",
        "estimation.fit_double_gaussian.unconverged": "count",
        "estimation.bootstrap.replica_failures": "count",
        "io.write_table.bytes": "bytes",
        "io.read_series_csv.rows": "count",
    })
    units.update({f"{m}.self_frac": "fraction" for m in LAYERS})
    units.update({"trace.unattributed_frac": "fraction", "trace.absent": "count",
                  "trace.overhead_frac": "fraction"})
    return units


# ---------------------------------------------------------------------------
# the benchmark


class Bench:
    def __init__(self, root: str, workload, seed: int, workdir: str):
        self.root = root
        self.workload = workload
        self.workdir = workdir
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        for k in BLAS_ENV:
            self.env[k] = "1"
        config, self.units = workload.prepare(seed, workdir)
        self.config = config
        self.config_path = save_config(config, workdir)
        self.stderr_path = os.path.join(workdir, "stderr.log")
        self.checks = RowChecks()
        self.reference_bytes: dict[str, bytes] | None = None
        self.rounds = 0

    def probe(self, *args: str) -> float:
        """CPU seconds of one fresh interpreter run with ``args``."""
        res = run_process([sys.executable, *args], self.env, self.root, self.stderr_path)
        if res.exit_code != 0:
            raise RuntimeError(f"{args} exited with {res.exit_code}")
        return res.cpu_s

    def setup_probe(self) -> float:
        return self.probe("-m", "bjjsense.cli", self.workload.command, "--help")

    def reference_probe(self) -> float:
        return self.probe("-c", REFERENCE_TASK)

    def invoke(self, spans_path: str | None = None) -> ProcessResult:
        """One CLI invocation into a fresh output directory, then its checks.

        Untraced, the CLI runs under ``launch.py``, which reports the CPU
        time its start-up took; traced, under ``tracer.py``.
        """
        self.rounds += 1
        out = os.path.join(self.workdir, f"out{self.rounds}")
        os.mkdir(out)
        args = [self.workload.command, "--config", self.config_path, "--out", out]
        startup = os.path.join(self.workdir, "startup.txt")
        if spans_path is None:
            cmd = [sys.executable, os.path.join(HERE, "launch.py"), startup, *args]
        else:
            cmd = [sys.executable, os.path.join(HERE, "tracer.py"), spans_path, *args]
        res = run_process(cmd, self.env, self.root, self.stderr_path)
        if os.path.exists(startup):
            with open(startup, encoding="utf-8") as fh:
                res = res._replace(startup_cpu_s=float(fh.read()))
            os.remove(startup)
        self.check(out, res.exit_code)
        shutil.rmtree(out)
        return res

    def check(self, out: str, exit_code: int) -> None:
        label = f"round {self.rounds}"
        rows = self.workload.expected_rows(self.config)
        if exit_code != 0:
            self.checks.fail_rows(label, rows, f"exit code {exit_code}")
            return
        round_checks = RowChecks()
        try:
            self.workload.check(out, self.config, round_checks)
            blobs = {}
            for name in self.workload.outputs:
                with open(os.path.join(out, name), "rb") as fh:
                    blobs[name] = fh.read()
        except (OSError, ValueError, KeyError, IndexError) as err:
            self.checks.fail_rows(label, rows, f"unreadable output: {err}")
            return
        if self.reference_bytes is None:
            self.reference_bytes = blobs
        elif blobs != self.reference_bytes:
            round_checks.fail_rows(label, 1, "output differs from the first round")
        self.checks.attempted += round_checks.attempted
        self.checks.failures += round_checks.failures


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bjjsense", "cli.py")):
        print(f"error: {root} holds no src/bjjsense; run from a checkout root",
              file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return measure(root, workdir, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still holds its own directory there


def measure(root: str, workdir: str, args) -> int:
    bench = Bench(root, WORKLOADS[args.workload], args.seed, workdir)
    print("machine:", json.dumps(machine_facts(bench.env)))
    print("config:", json.dumps(bench.config))
    bench.setup_probe()  # warm the file cache; not timed
    setups, refs, walls, cpus, work, rss, traced = [], [], [], [], [], [], []
    layer_runs, round_s = [], []
    deadline = time.perf_counter() + args.seconds
    while len(walls) < MIN_ROUNDS[args.trace] or (
            time.perf_counter() + statistics.median(round_s) / 2 < deadline):
        started = time.perf_counter()
        if len(walls) % SETUP_EVERY == 0:
            setups.append(bench.setup_probe())
        refs.append(bench.reference_probe())
        res = bench.invoke()
        walls.append(res.wall_s)
        cpus.append(res.cpu_s)
        work.append(res.cpu_s - res.startup_cpu_s)
        rss.append(res.rss_mb)
        if args.trace:
            spans = os.path.join(workdir, "spans.npz")
            res = bench.invoke(spans_path=spans)
            traced.append(res.cpu_s)
            if res.exit_code == 0:
                layer_runs.append(layer_metrics(spans, res.wall_s))
            if os.path.exists(spans):
                os.remove(spans)
        round_s.append(time.perf_counter() - started)
    checks = bench.checks
    for line in checks.failures[:20]:
        print("check failed:", line)
    rounds = len(walls)
    print(f"rounds: {rounds}; wall_s {[round(w, 3) for w in walls]}; "
          f"cpu_s {[round(c, 3) for c in cpus]}; "
          f"past start-up cpu_s {[round(w, 3) for w in work]}; "
          f"setup cpu_s {[round(s, 3) for s in setups]}; "
          f"reference cpu_s {[round(r, 3) for r in refs]}")
    if args.trace:
        metrics = {k: (0.0, u) for k, u in per_layer_units().items()}
        if layer_runs:
            absent, tails = layer_runs[0][1], layer_runs[0][2]
            if absent:
                print("absent layers:", ", ".join(absent))
            for line in tails:
                print("tail:", line)
            for key in layer_runs[0][0]:
                metrics[key] = (statistics.median(r[0][key][0] for r in layer_runs),
                                metrics[key][1])
            metrics["trace.overhead_frac"] = (
                statistics.median(traced) / statistics.median(cpus) - 1.0, "fraction")
    else:
        scale = REFERENCE_S / statistics.median(refs)
        metrics = {
            "cpu_s": (statistics.median(cpus) * scale, "s"),
            "setup_s": (statistics.median(setups) * scale, "s"),
            "throughput": (bench.units / (statistics.median(work) * scale), "1/s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
        }
    failed = len(checks.failures)
    emit(failed == 0, checks.attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
