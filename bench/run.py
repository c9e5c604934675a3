"""Benchmark driver for reflectsde.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
``src/``.  Every repetition is a fresh single-threaded child process
(``child.py``) that runs the workload's parts in turn, timed from spawn
to exit; its outputs are checked against
the independent reference (``reference.py``) for the same seed, and
against the first repetition byte for byte.  With ``--trace 0`` the
workload repeats and the end-to-end metrics are reported; with
``--trace 1`` untraced and traced repetitions alternate and the per-layer
metrics are reported.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics,
the metrics being those BENCHMARK.json lists.  NOTES.md describes the
workloads, the metrics and what each layer should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import numpy as np

import reference
from tracer import summarize
from workloads import WEDGE_CONFIG, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "bench"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
CHILD_TIMEOUT_S = 120.0
MIN_REPS = 2  # a run's median rests on at least two workload repetitions
# Outputs may differ from the reference by round-off: Dykstra's projection
# stops near, not at, the exact projection the reference computes.  Over
# wedge seeds 0-39 the largest difference was 6e-12.
RTOL, ATOL = 1e-9, 1e-10


@dataclass
class Rep:
    """One child process: its timings, peak RSS and what it left behind."""

    rep_dir: Path
    exit_code: int
    wall_s: float
    setup_s: float | None
    rss_mb: float
    result: dict | None

    @property
    def out_dir(self) -> Path:
        return self.rep_dir / "out"


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def reap(proc: subprocess.Popen):
    """Wait for the child with a timeout; returns (end time, status, rusage)."""
    box = []

    def wait():
        _, status, usage = os.wait4(proc.pid, 0)
        box.append((time.perf_counter(), status, usage))

    waiter = threading.Thread(target=wait, daemon=True)
    waiter.start()
    waiter.join(CHILD_TIMEOUT_S)
    if waiter.is_alive():
        proc.kill()
        waiter.join()
    end, status, usage = box[0]
    proc.returncode = os.waitstatus_to_exitcode(status)
    return end, proc.returncode, usage


def spawn(run_dir: Path, tag: str, argv: list) -> Rep:
    rep_dir = run_dir / tag
    rep_dir.mkdir()
    cmd = [
        sys.executable, "-E", "-s", str(BENCH_DIR / "child.py"), *argv,
        "--out", str(rep_dir / "out"), "--result", str(rep_dir / "result.json"),
    ]
    with open(rep_dir / "stdout.txt", "wb") as out, open(rep_dir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=run_dir, env=child_env(), stdout=out, stderr=err)
        end, code, usage = reap(proc)
    try:
        result = json.loads((rep_dir / "result.json").read_text())
    except (OSError, ValueError):
        result = None
    setup = result["ready"] - start if result else None
    return Rep(rep_dir, code, end - start, setup, usage.ru_maxrss / 1024.0, result)


def compare(actual, expected, where: str) -> list:
    """Differences between a JSON value and its reference: structure,
    strings, booleans and integers exactly, floats within RTOL/ATOL."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{where}: keys differ"]
        return [d for k in expected for d in compare(actual[k], expected[k], f"{where}.{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: length differs"]
        return [d for i, (a, e) in enumerate(zip(actual, expected)) for d in compare(a, e, f"{where}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, (int, float)) and not isinstance(actual, bool):
        if math.isclose(actual, expected, rel_tol=RTOL, abs_tol=ATOL) or (math.isnan(actual) and math.isnan(expected)):
            return []
        return [f"{where}: {actual!r} != {expected!r}"]
    if type(actual) is not type(expected) or actual != expected:
        return [f"{where}: {actual!r} != {expected!r}"]
    return []


def read_csv_path(text: str):
    lines = text.splitlines()
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return lines[0], rows[:, 0], rows[:, 1:]


def check_part(rep: Rep, part, expected) -> list:
    """Problems with one part's outputs, against its reference."""
    code = rep.result["exits"].get(part.name)
    if code != expected["exit"]:
        return [f"exit code {code}, reference {expected['exit']}"]
    if part.cli is None:
        return compare(rep.result["rows"].get(part.name), expected["rows"], "rows")
    out_dir = rep.out_dir / part.name
    files = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
    if files != expected["files"]:
        return [f"output files {sorted(files ^ expected['files'])[:5]} differ from the reference"]
    try:
        report = json.loads((out_dir / "report.json").read_text())
    except ValueError as exc:
        return [f"report.json: {exc}"]
    problems = compare(report, expected["report"], "report")
    for name, values in expected.get("artifacts", {}).items():
        try:
            header, times, got = read_csv_path((out_dir / name).read_text())
        except (ValueError, IndexError) as exc:
            problems.append(f"{name}: {exc}")
            continue
        if header != "t," + ",".join(f"x_{i + 1}" for i in range(values.shape[1])):
            problems.append(f"{name}: header {header!r}")
        elif not np.array_equal(times, expected["times"]) or got.shape != values.shape:
            problems.append(f"{name}: breakpoints differ")
        elif not np.allclose(got, values, rtol=RTOL, atol=ATOL):
            problems.append(f"{name}: values differ by {np.max(np.abs(got - values)):.3g}")
    return problems


def check_rep(rep: Rep, workload, expected) -> list:
    """Problems with one repetition's outputs, part by part."""
    if rep.result is None or rep.exit_code != 0:
        return [f"child exited {rep.exit_code}" + ("" if rep.result else " without a result")]
    return [f"{part.name}: {p}" for part in workload.parts for p in check_part(rep, part, expected[part.name])]


def fingerprint(rep: Rep) -> str:
    """What must repeat byte for byte across repetitions of one commit:
    the library rows and every file written under ``--out``."""
    digest = hashlib.sha256(json.dumps(rep.result["rows"] if rep.result else None).encode())
    if rep.out_dir.is_dir():
        for path in sorted(p for p in rep.out_dir.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(rep.out_dir)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def tail_note(values) -> str:
    """Median, plus the highest percentile with at least ten runs beyond it."""
    n = len(values)
    if n < 11:
        return f"median of {n}; no percentile has ten runs beyond it"
    ordered = sorted(values)
    pct = 100.0 * (n - 10) / n
    return f"median of {n}; p{pct:.0f} {ordered[n - 11]:.6g}"


def machine_probe() -> dict:
    """A fixed pure-Python loop and numpy sort, timed for the record only."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    python_s = time.perf_counter() - start
    data = np.random.default_rng(0).random(1_000_000)
    start = time.perf_counter()
    np.sort(data)
    return {"python_s": python_s, "numpy_s": time.perf_counter() - start}


def environment(seed: int) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: "1" for var in THREAD_VARS},
        "seed": seed,
    }


def end_to_end_samples(workload, reps) -> dict:
    """Per-child samples of each end-to-end metric."""
    timed = [r for r in reps if r.setup_s is not None]
    return {
        "wall_s": [r.wall_s for r in reps],
        "setup_s": [r.setup_s for r in timed],
        "path_steps_per_s": [workload.path_steps / (r.wall_s - r.setup_s) for r in timed],
        "peak_rss_mb": [r.rss_mb for r in reps],
    }


def per_layer(summaries, out_scan, overhead_s) -> dict:
    """Per-layer metrics: counts from the first traced run (they repeat
    exactly), times as medians over the traced runs."""
    first = summaries[0]
    zero = {"calls": 0, "work": 0, "outside": 0, "errors": 0, "self_s": 0.0}

    def count(layer, key):
        return first.get(layer, zero)[key]

    def self_s(layer):
        return statistics.median(s.get(layer, zero)["self_s"] for s in summaries)

    def per_unit(seconds, amount, scale):
        return seconds / amount * scale if amount else 0.0

    m = {}
    for dom in ("halfspace", "polyhedron"):
        layer = f"domain.project.{dom}"
        points = count(layer, "work")
        m[f"{layer}.calls"] = count(layer, "calls")
        m[f"{layer}.points"] = points
        m[f"{layer}.outside_frac"] = count(layer, "outside") / points if points else 0.0
        m[f"{layer}.self_s"] = self_s(layer)
        m[f"{layer}.ns_per_point"] = per_unit(self_s(layer), points, 1e9)
        m[f"{layer}.errors"] = count(layer, "errors")
    m["sde.sample.calls"] = count("sde.sample", "calls")
    m["sde.sample.paths"] = count("sde.sample", "work")
    m["sde.sample.self_s"] = self_s("sde.sample")
    m["sde.sample.us_per_path"] = per_unit(self_s("sde.sample"), m["sde.sample.paths"], 1e6)
    for kind in ("single", "batch"):
        layer = f"sde.kernel.{kind}"
        m[f"{layer}.calls"] = count(layer, "calls")
        m[f"{layer}.path_steps"] = count(layer, "work")
        m[f"{layer}.self_s"] = self_s(layer)
        m[f"{layer}.ns_per_path_step"] = per_unit(self_s(layer), count(layer, "work"), 1e9)
    m["path.modulus.calls"] = count("path.modulus", "calls")
    m["path.modulus.self_s"] = self_s("path.modulus")
    m["stats.energy.calls"] = count("stats.energy", "calls")
    m["stats.energy.pairs"] = count("stats.energy", "work")
    m["stats.energy.self_s"] = self_s("stats.energy")
    m["stats.energy.ns_per_pair"] = per_unit(self_s("stats.energy"), m["stats.energy.pairs"], 1e9)
    for layer in ("stats.ks", "stats.oscillation"):
        m[f"{layer}.calls"] = count(layer, "calls")
        m[f"{layer}.self_s"] = self_s(layer)
    m["cli.write.files"], m["cli.write.bytes"] = out_scan
    m["cli.write.self_s"] = self_s("cli.write")
    m["trace.overhead_s"] = overhead_s
    return m


def coverage_problems(workload, metrics) -> list:
    """The traced counts must equal the workload arithmetic; a shortfall
    means a call site escaped the wrappers."""
    counts = dict(metrics)
    counts["sde.kernel.path_steps"] = metrics["sde.kernel.single.path_steps"] + metrics["sde.kernel.batch.path_steps"]
    problems = []
    for key, want in workload.coverage().items():
        got = counts[key]
        if got < want or (got != want and not key.endswith(".points")):
            problems.append(f"traced {key} = {got}, workload arithmetic gives {want}")
    return problems


def scan_out(rep: Rep):
    files = [p for p in rep.out_dir.rglob("*") if p.is_file()] if rep.out_dir.is_dir() else []
    return len(files), sum(p.stat().st_size for p in files)


@dataclass
class Measurement:
    plain: list
    traced: list
    summaries: list
    out_scan: tuple
    problems: list
    attempted: int
    failed: int


def measure(run_dir: Path, workload, seed: int, seconds: float, trace: bool, expected) -> Measurement:
    """Repeat the workload (alternating with a traced repetition when
    tracing) until ``seconds`` have passed and at least MIN_REPS
    repetitions ran; check every repetition's outputs as it ends."""
    m = Measurement([], [], [], (0, 0), [], 0, 0)
    argv = [workload.name, "--seed", str(seed)]
    first_print = None
    deadline = time.perf_counter() + seconds
    while True:
        began = time.perf_counter()
        reps = [spawn(run_dir, f"rep{len(m.plain)}", argv)]
        m.plain.append(reps[0])
        if trace:
            reps.append(spawn(run_dir, f"traced{len(m.traced)}", [*argv, "--trace"]))
            m.traced.append(reps[1])
        for rep in reps:
            problems = check_rep(rep, workload, expected)
            current = fingerprint(rep)
            first_print = first_print or current
            if current != first_print:
                problems.append("outputs differ from the first repetition's")
            if trace and rep is reps[1] and not problems:
                spans_file = rep.rep_dir / "spans.json"
                m.summaries.append(summarize(json.loads(spans_file.read_text())))
                m.out_scan = scan_out(rep)
                shutil.copyfile(spans_file, run_dir.parent / f"{workload.name}-spans.json")
            m.attempted += workload.paths
            if problems:
                m.failed += workload.paths
                m.problems.extend(f"{rep.rep_dir.name}: {p}" for p in problems)
            shutil.rmtree(rep.rep_dir)
        took = time.perf_counter() - began
        if len(m.plain) >= MIN_REPS and time.perf_counter() + took / 2.0 > deadline:
            return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "reflectsde" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'reflectsde'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    workload = WORKLOADS[args.workload]

    run_dir = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        (run_dir / "wedge.json").write_text(json.dumps(WEDGE_CONFIG))
        expected = {part.name: reference.REFERENCES[part.name](args.seed) for part in workload.parts}
        probe_before = machine_probe()
        # compiles bytecode and warms the file cache before anything is timed
        shutil.rmtree(spawn(run_dir, "warmup", ["setup"]).rep_dir)
        m = measure(run_dir, workload, args.seed, args.seconds, bool(args.trace), expected)
        probe_after = machine_probe()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    samples = {}
    if args.trace:
        values = {}
        if m.summaries:
            overhead = statistics.median(r.wall_s for r in m.traced) - statistics.median(r.wall_s for r in m.plain)
            values = per_layer(m.summaries, m.out_scan, overhead)
            m.problems.extend(coverage_problems(workload, values))
        wanted = spec["per_layer"]
    else:
        samples = end_to_end_samples(workload, m.plain)
        values = {name: statistics.median(v) for name, v in samples.items() if v}
        wanted = spec["end_to_end"]

    for problem in m.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not m.problems and all(w["name"] in values for w in wanted)
    print(f"workload {workload.name}  seed {args.seed}  paths {workload.paths}  path-steps {workload.path_steps}")
    for w in wanted:
        note = tail_note(samples[w["name"]]) if w["name"] in samples else ""
        print(f"  {w['name']:<42} {values.get(w['name'], float('nan')):>16.6g} {w['unit']:<6} {note}")
    print(f"  {'failed_frac':<42} {m.failed / m.attempted:>16.6g} {'frac':<6} {m.failed} of {m.attempted} paths")
    record = {
        "environment": environment(args.seed),
        "probe": {"before": probe_before, "after": probe_after},
        "wall_s": [r.wall_s for r in m.plain],
        "traced_wall_s": [r.wall_s for r in m.traced],
        "setup_s": [r.setup_s for r in m.plain],
        "peak_rss_mb": [r.rss_mb for r in m.plain],
    }
    print("record " + json.dumps(record))
    metrics = {w["name"]: {"value": values.get(w["name"], 0.0), "unit": w["unit"]} for w in wanted}
    print(json.dumps({"correct": correct, "attempted": m.attempted, "failed": m.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
