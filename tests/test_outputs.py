"""Byte parity of every run of ``tools/outputs.py`` with a committed digest.

``outputs.sha256`` beside this file holds one line per file the tool
writes, sorted by path: its SHA-256, its size in bytes and its path under
the output directory.  A header names the Python and numpy versions and
the machine type it was written under.  The first test runs the tool into
a temporary directory, hashes every file it wrote and compares the result
with the digest, so a change that moves one byte of any run fails and
names the runs it moved.  The bytes rest on numpy's Philox and normal
streams and on the host's float library, so that test skips only where
the header's versions or machine type differ from the running ones.  The
second test checks that the tool refuses a wrong command line before it
starts any run.

    PYTHONPATH=src python tests/test_outputs.py

rewrites the digest from a fresh run, for a change that means to move
bytes.
"""

import hashlib
import platform
import runpy
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
DIGEST = Path(__file__).resolve().parent / "outputs.sha256"


def versions() -> list:
    """The header lines of a digest written by the running interpreter."""
    return [
        f"# python {platform.python_version()}",
        f"# numpy {np.__version__}",
        f"# machine {platform.machine()}",
    ]


def run_tool(out: Path) -> dict:
    """The tool's runs written under ``out``; returns their exit codes."""
    tool = runpy.run_path(str(ROOT / "tools" / "outputs.py"))
    return tool["write_outputs"](out)


def digest(out: Path) -> list:
    """One "sha256 size path" line per file below ``out``, sorted by path."""
    lines = {}
    for file in out.rglob("*"):
        if file.is_file():
            data, path = file.read_bytes(), file.relative_to(out).as_posix()
            lines[path] = f"{hashlib.sha256(data).hexdigest()} {len(data)} {path}"
    return [lines[path] for path in sorted(lines)]


def test_every_run_keeps_its_bytes(tmp_path):
    lines = DIGEST.read_text().splitlines()
    header = [line for line in lines if line.startswith("#")]
    if header != versions():
        pytest.skip(f"digest written under {header}, running under {versions()}")
    codes = run_tool(tmp_path)
    assert {name: code for name, (code, _) in codes.items()} == {
        name: expected for name, (_, expected) in codes.items()
    }
    moved = set(digest(tmp_path)).symmetric_difference(lines[len(header) :])
    runs = sorted({line.split(" ", 2)[2].split("/")[0] for line in moved})
    assert not runs, f"runs whose bytes differ from {DIGEST.name}: {runs}"


@pytest.fixture
def cli(monkeypatch):
    """The tool's ``cli``, failing the test if it starts any run."""
    tool = runpy.run_path(str(ROOT / "tools" / "outputs.py"))

    def no_runs(out):
        raise AssertionError(f"runs started into {out}")

    monkeypatch.setitem(tool["cli"].__globals__, "write_outputs", no_runs)
    return tool["cli"]


def test_cli_refuses_bad_arguments_without_running(cli, tmp_path, capsys):
    for argv in ([], ["a", "b"]):
        assert cli(argv) == 2
        assert capsys.readouterr().err == "python tools/outputs.py DIR\n"
    full = tmp_path / "full"
    full.mkdir()
    (full / "kept").write_text("kept")
    assert cli([str(full)]) == 2
    assert [file.name for file in full.iterdir()] == ["kept"]
    assert "is not an empty directory" in capsys.readouterr().err
    file = tmp_path / "file"
    file.write_text("kept")
    assert cli([str(file)]) == 2
    assert file.read_text() == "kept"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["file", "full"]


def write_digest() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        codes = run_tool(Path(tmp))
        wrong = [name for name, (code, expected) in codes.items() if code != expected]
        if wrong:
            sys.exit(f"runs that exit with an unexpected code: {wrong}")
        DIGEST.write_text("\n".join(versions() + digest(Path(tmp))) + "\n")


if __name__ == "__main__":
    write_digest()

