"""The benchmark's tracer must still find every entry point it wraps, and
count on small runs what its coverage check requires of the full ones."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import reflectsde.cli
from tracer import Tracer
Tracer().install()
"""

# Runs each command under the tracer and prints, per command and as the
# last line, its exit code, the layer summary of its spans and the files
# it wrote.  bench/ is only read: -B keeps bytecode out of it, and runpy
# compiles workloads.py without writing any.
COUNT = """
import json, runpy, sys
from pathlib import Path
sys.path[:0] = [{src!r}, {bench!r}]
import reflectsde.cli
from tracer import Tracer, summarize
wedge = runpy.run_path({workloads!r})["WEDGE_CONFIG"]
tracer = Tracer()
tracer.install()
out, result = Path({out!r}), {{}}
(out / "wedge.json").write_text(json.dumps(wedge))
for name, argv in {commands!r}.items():
    first = len(tracer.spans)
    argv = [a.replace("wedge.json", str(out / "wedge.json")) for a in argv]
    code = reflectsde.cli.main([*argv, "--out", str(out / name)])
    files = sorted(p.name for p in (out / name).iterdir())
    result[name] = (code, summarize(tracer.spans[first:]), files)
print(json.dumps(result))
"""

# (command line, paths M, cells K, projection layer, counts of their own)
RUNS = {
    "cp-oscillation": (
        ["converge", "--config", "cp-oscillation", "--paths", "8"],
        8,
        256,
        "halfspace",
        {"path.modulus": 8 * 4, "stats.oscillation": 1},
    ),
    "rbm": (
        ["converge", "--config", "rbm-benchmark", "--paths", "200"],
        200,
        1024,
        "halfspace",
        {"stats.ks": 1},
    ),
    "simulate-wedge": (
        ["simulate", "--config", "wedge.json", "--paths", "8"],
        8,
        128,
        "polyhedron",
        {},
    ),
}


def test_tracer_installs_on_the_package():
    # bench/tracer.py wraps entry points by name and the benchmark checks
    # the span counts it records, so dropping or renaming a traced function
    # or method must fail here rather than make traced runs incorrect
    code = INSTALL.format(src=str(ROOT / "src"), bench=str(ROOT / "bench"))
    done = subprocess.run(
        [sys.executable, "-E", "-s", "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_traced_counts_match_the_workload_arithmetic(tmp_path):
    # the counts bench/run.py's coverage check requires to equal the
    # workload arithmetic, on small versions of the benchmark's CLI parts:
    # each path sampled once, M * K kernel path-steps, every grid point
    # projected, one modulus call per (pair, delta), and one traced
    # serialization call per written file but the manifest
    code = COUNT.format(
        src=str(ROOT / "src"),
        bench=str(ROOT / "bench"),
        workloads=str(ROOT / "bench" / "workloads.py"),
        commands={name: run[0] for name, run in RUNS.items()},
        out=str(tmp_path),
    )
    done = subprocess.run(
        [sys.executable, "-B", "-E", "-s", "-c", code],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    for name, (_, M, K, domain, own) in RUNS.items():
        code, layers, files = result[name]
        # on so few paths a study's statistical check may fail (exit 3);
        # the run is still complete
        assert code in (0, 3), name

        def count(layer, key="calls"):
            return layers.get(layer, {}).get(key, 0)

        assert count("sde.sample", "work") == M, name
        kernel = count("sde.kernel.single", "work") + count("sde.kernel.batch", "work")
        assert kernel == M * K, name
        assert count(f"domain.project.{domain}", "work") >= M * (K + 1), name
        for layer in ("path.modulus", "stats.oscillation", "stats.ks"):
            assert count(layer) == own.get(layer, 0), (name, layer)
        kept = M if name == "simulate-wedge" else 0
        tables = 0 if kept else 1
        assert len(files) == 2 + tables + kept, (name, files)
        assert count("cli.write") == len(files) - 1, name
