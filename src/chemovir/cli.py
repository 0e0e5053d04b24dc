"""Command-line entry point: simulate, sweep, verify, threshold.

Exit codes: 0 success, 1 verification failure, 2 usage/config error
(an output path that cannot be written, or a grid beyond the memory at
hand, included), 3 numerical abort.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .config import ConfigError, load_config
from .grid import write_snapshot
from .model import alpha_threshold
from .monitors import write_diagnostics_csv
from .stepper import UnstableRunError, run
from .sweep import run_sweep
from .verification import SUITES, run_suite

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


@contextlib.contextmanager
def _memory_for(grid):
    """Report a MemoryError as a usage error that gives the grid's cell count."""
    try:
        yield
    except MemoryError as error:
        raise ValueError(f"cells: {grid.n_cells} cells need more memory than is available "
                         f"({error})") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chemovir",
        description="Finite-volume solver and verification harness for the "
                    "saturated-chemotaxis infection model.")
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="run one simulation from a config file")
    simulate.add_argument("--config", required=True, help="path to the config file")
    simulate.add_argument("--out", default=None, help="output directory (default: config out_dir)")

    sweep = sub.add_parser("sweep", help="run an alpha sweep from a config file")
    sweep.add_argument("--config", required=True, help="path to the config file")
    sweep.add_argument("--out", default=None, help="output directory (default: config out_dir)")
    sweep.add_argument("--jobs", type=_positive_int, default=os.cpu_count() or 1,
                       help="parallel row chunks, >= 1 (default: the cpu count)")

    verify = sub.add_parser("verify", help="run a built-in verification suite")
    verify.add_argument("--suite", required=True, choices=sorted(SUITES),
                        help="which scenario suite to run")

    threshold = sub.add_parser("threshold", help="print the boundedness threshold on alpha")
    threshold.add_argument("--n", type=int, required=True, help="spatial dimension")
    return parser


def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    if config.alpha is None:
        raise ConfigError("missing required key 'alpha' in section [model]")
    out_dir = args.out or config.out_dir
    os.makedirs(out_dir, exist_ok=True)

    snapshot_every = config.snapshot_every
    next_snapshot = [snapshot_every]

    def on_record(state, record):
        if snapshot_every > 0 and record.t + 1e-9 >= next_snapshot[0]:
            write_snapshot(os.path.join(out_dir, f"snapshot_t{record.t:.6g}.cvf"),
                           state, config.grid)
            # the first multiple of snapshot_every after this record
            next_snapshot[0] = ((record.t + 1e-9) // snapshot_every + 1) * snapshot_every

    with _memory_for(config.grid):
        result = run(config.initial_state(config.seed), config.params(config.alpha),
                     config.grid, config.control, config.t_end, config.monitor_every,
                     on_record=on_record)
    write_diagnostics_csv(result.records, os.path.join(out_dir, "diagnostics.csv"))
    write_snapshot(os.path.join(out_dir, "final_state.cvf"), result.final_state, config.grid)
    print(f"simulate: t_end={config.t_end} reached in {result.steps} steps "
          f"({result.negativity_retries} dt-halving retries); wrote diagnostics.csv "
          f"and final_state.cvf to {out_dir}")
    return 0


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    spec = config.sweep_spec()
    out_dir = args.out or config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    with _memory_for(spec.grid):
        result = run_sweep(spec, jobs=args.jobs)
    path = os.path.join(out_dir, "sweep.csv")
    result.write_csv(path)
    aborted = sum(1 for row in result.rows if row.run_status != "completed")
    print(f"sweep: {len(result.rows)} rows ({aborted} aborted) written to {path}")
    return 0


def _cmd_verify(args) -> int:
    checks = run_suite(args.suite)
    failed = 0
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        failed += 0 if check.passed else 1
        print(f"{status} {check.name}: {check.detail}")
    print(f"suite {args.suite}: {len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


def _cmd_threshold(args) -> int:
    value = alpha_threshold(args.n)
    print(f"{value} ≈ {float(value)!r}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_status:
        return int(exit_status.code or 0)
    handlers = {
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
        "verify": _cmd_verify,
        "threshold": _cmd_threshold,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except UnstableRunError as error:
        print(f"numerical abort: {error}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
