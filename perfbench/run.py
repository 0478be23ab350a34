"""Benchmark of the Cohmeleon reproduction, one workload per run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig9 --seed 29 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``fig9`` — the Figure 9 / Section 6 policy comparison, in process;
* ``sweep-isolation`` — the Figure 2 grid through a 2-worker
  ``SweepRunner`` with a result cache, cold then warm;
* ``serving-decide`` — ``python -m repro.serving serve`` under an
  open-loop ``/v1/decide`` load.

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off; with ``--trace 1`` it makes a separate traced run that reports the
per-layer metrics.  The report goes to standard output, and its last
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A failed correctness check still prints that line, with
``correct`` false, and exits with code 1; a run that cannot start (for
example without the program's sources) prints no result and exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

import common
from outcome import Outcome

WORKLOADS = ("fig9", "sweep-isolation", "serving-decide")


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True, help="workload seed; inputs derive from it")
    parser.add_argument("--seconds", type=float, required=True, help="how long the run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(args: argparse.Namespace) -> Outcome:
    import wl_fig9
    import wl_serving
    import wl_sweep

    run_id = f"{args.workload}-seed{args.seed}"
    modules = {"fig9": wl_fig9, "sweep-isolation": wl_sweep, "serving-decide": wl_serving}
    module = modules[args.workload]
    if args.trace:
        return module.run_traced(args.seed, args.seconds, run_id)
    return module.run(args.seed, args.seconds)


def host_line() -> str:
    from repro.utils.host import host_metadata

    host = host_metadata()
    host["nproc"] = len(os.sched_getaffinity(0))
    return f"host: {json.dumps(host, sort_keys=True)}"


def metric_units(traced: bool) -> Dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` lists for this kind of run."""
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec["per_layer" if traced else "end_to_end"]}


def result_document(outcome: Outcome, units: Dict[str, str], traced: bool) -> Dict[str, object]:
    """The result line; a traced run reports a layer it never reached as 0."""
    values = {name: outcome.metrics.get(name, 0.0) if traced else outcome.metrics[name] for name in units}
    return {
        "correct": not outcome.errors and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        common.require_program()
        units = metric_units(bool(args.trace))
        common.WORK.mkdir(exist_ok=True)
        outcome = run_workload(args)
        document = result_document(outcome, units, bool(args.trace))
    except Exception as exc:  # noqa: BLE001 - top level: report and fail without a result
        print(f"perfbench: {args.workload}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(host_line())
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in outcome.lines:
        print(f"  {line}")
    for name, metric in document["metrics"].items():  # type: ignore[union-attr]
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  operations: {outcome.attempted} attempted, {outcome.failed} failed")
    for error in outcome.errors:
        print(f"  CHECK FAILED: {error}")
    print(json.dumps(document))
    return 0 if document["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
