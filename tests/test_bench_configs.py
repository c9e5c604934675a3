"""The configs the benchmark runs must pass the config schema."""

import runpy
from pathlib import Path

import pytest

from reflectsde.experiments import BUILTIN_CONFIGS, _checked, builtin_config

ROOT = Path(__file__).resolve().parent.parent
# read, never edited; run_path compiles the source and writes no bytecode
WORKLOADS = runpy.run_path(str(ROOT / "bench" / "workloads.py"))
CLI_PARTS = [part for part in WORKLOADS["PARTS"].values() if part.cli is not None]


@pytest.mark.parametrize("part", CLI_PARTS, ids=lambda part: part.name)
@pytest.mark.parametrize("seed", [0, 97])
def test_bench_runs_pass_the_schema(part, seed):
    # the benchmark runs `<command> --config <ref> --seed N`: a config the
    # schema refused would end every run as run_failed, not fail tier-1
    command, flag, ref = part.cli
    assert flag == "--config"
    cfg = WORKLOADS["WEDGE_CONFIG"] if ref == "wedge.json" else builtin_config(ref)
    _checked(command, {**cfg, "seed": seed})


@pytest.mark.parametrize("name", sorted(BUILTIN_CONFIGS))
def test_builtins_pass_the_schema(name):
    cfg = builtin_config(name)
    command = cfg["experiment"]
    _checked(command, cfg)
    if command != "skorokhod":
        _checked(command, {**cfg, "seed": 5})
