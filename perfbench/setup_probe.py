"""Set-up work of one workload in a fresh interpreter, for ``setup_s``.

Usage::

    python perfbench/setup_probe.py fig9|sweep-isolation SEED

The caller times the whole process, so ``setup_s`` covers interpreter
start, imports, and building what the workload needs before its first
operation: the SoC configurations, accelerators and applications, and a
SoC model of each.  Nothing is simulated.
"""

from __future__ import annotations

import sys
from typing import Sequence


def fig9(seed: int) -> None:
    from repro.experiments.socs import figure9_applications, figure9_setup
    from repro.soc.soc import Soc

    for label in ("SoC1", "SoC6"):
        setup = figure9_setup(label, seed=seed)
        figure9_applications(label, setup, seed=seed)
        Soc(setup.soc_config)


def sweep(seed: int) -> None:
    import dataclasses

    from repro.experiments.common import motivation_setup
    from repro.experiments.isolation import run_isolation_experiment  # noqa: F401 - import cost
    from repro.experiments.sweep import RunConfig, SweepRunner
    from repro.soc.soc import Soc

    setup = dataclasses.replace(motivation_setup(line_bytes=256), seed=seed)
    SweepRunner(config=RunConfig(workers=2))
    Soc(setup.soc_config)


def main(argv: Sequence[str]) -> int:
    workloads = {"fig9": fig9, "sweep-isolation": sweep}
    if len(argv) != 2 or argv[0] not in workloads:
        print(__doc__, file=sys.stderr)
        return 2
    workloads[argv[0]](int(argv[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
