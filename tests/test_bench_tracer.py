"""The benchmark's tracer must still find every entry point it wraps."""

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
