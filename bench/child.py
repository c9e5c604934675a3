"""One timed benchmark process: import the package, mark it ready, run the
parts of one workload, exit.

    python3 -E -s bench/child.py <workload|setup> --seed N --out DIR --result FILE [--trace]

The package is imported from ``src/`` of the checkout this file sits in,
first thing, so the time from spawn to the "ready" stamp is the set-up a
user of the CLI waits for.  ``setup`` stops there.  Each CLI part runs
``reflectsde.cli.main`` with the part's arguments and ``--out DIR/<part>``;
``marginal-energy`` runs the library pipeline.  The result file records
each part's exit code and the pipeline's rows; the process exits 0 once
every part has run.  With ``--trace`` the layer wrappers are installed
after the ready stamp and the spans are written to ``spans.json`` beside
the result file.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import reflectsde  # noqa: E402
import reflectsde.cli  # noqa: E402

READY = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402

from workloads import ENERGY_LADDER, ENERGY_PATHS, WORKLOADS, halfnormal_draws  # noqa: E402


def energy_pipeline(rs, seed: int) -> list:
    """Reflected Brownian motion on the half-line along the (n, K) ladder,
    then energy distances of the t = 1 marginals to exact draws."""
    domain = rs.HalfSpace([1.0], 0.0, anchor=[1.0])
    spec = rs.DriverSpec(dim=1, h=rs.ConstantStart(0.0), z_components=(rs.Brownian(1.0),))
    cells = []
    for n, K in ENERGY_LADDER:
        grid = rs.Grid.regular(1.0, K)
        H, Z = rs.sample_driver_batch(spec, grid, seed, ENERGY_PATHS)
        states, _ = rs.euler_penalized_batch(domain, rs.Identity(1), H, Z, n, grid)
        cells.append(rs.MarginalCell(n=n, mesh=1.0 / K, samples={1.0: states[:, -1, 0]}))
    draws = halfnormal_draws(seed)
    report = rs.marginal_convergence(cells, [1.0], lambda t: draws, statistic="energy")
    return [dict(row) for row in report.rows]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=["setup", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    if SRC not in Path(reflectsde.__file__).resolve().parents:
        print(f"reflectsde was imported from {reflectsde.__file__}, not {SRC}", file=sys.stderr)
        return 70
    result = {"ready": READY, "exits": {}, "rows": {}}
    if args.workload != "setup":
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        for part in WORKLOADS[args.workload].parts:
            if part.cli is None:
                result["rows"][part.name] = energy_pipeline(reflectsde, args.seed)
                code = 0
            else:
                argv = [*part.cli, "--seed", str(args.seed), "--out", str(args.out / part.name)]
                code = reflectsde.cli.main(argv)
            result["exits"][part.name] = code
        if tracer is not None:
            tracer.dump(args.result.with_name("spans.json"))
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
