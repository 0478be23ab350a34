"""The import budget: what the simulate, sweep and serve paths may load.

A serial simulation, sweep and fingerprint run needs neither numpy (the
Q-table is plain lists) nor the distributed coordinator's asyncio/HTTP
stack nor the pooled backends' multiprocessing; a model-serving process
needs asyncio but not numpy.  Each check runs in a fresh interpreter, so
nothing the test session already imported can hide a regression.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from serving_harness import make_artifact, make_registry

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules a serial run must not load.
SERIAL_FORBIDDEN = ("numpy", "asyncio", "http.client", "multiprocessing")

SERIAL_RUN = """
import json, sys

from repro.experiments.socs import figure9_setup
from repro.core.policies import CohmeleonPolicy, FixedPolicy
from repro.experiments.common import _policy_evaluation_job, evaluate_policies
from repro.experiments.sweep import Job, RunConfig, SweepRunner
from repro.soc.coherence import CoherenceMode
from repro.soc.soc import Soc
from repro.units import KB
from repro.workloads.spec import ApplicationSpec, PhaseSpec, ThreadSpec

setup = figure9_setup("SoC1", seed=5)
Soc(setup.soc_config)
name = setup.accelerators[0].name
app = ApplicationSpec(
    name="tiny",
    phases=(
        PhaseSpec(
            name="tiny",
            threads=(ThreadSpec(thread_id="t0", accelerator_chain=(name,), footprint_bytes=16 * KB),),
        ),
    ),
)
evaluations = evaluate_policies(
    setup,
    {"cohmeleon": CohmeleonPolicy(), "fixed": FixedPolicy(CoherenceMode.COH_DMA)},
    app,
    training_app=app,
    training_iterations=1,
    runner=SweepRunner(config=RunConfig(workers=1, backend="serial")),
)
assert evaluations["cohmeleon"].result.invocations
Job(key="cohmeleon", fn=_policy_evaluation_job, params={"policy": CohmeleonPolicy()}).fingerprint()
print(json.dumps(sorted(name for name in sys.argv[1:] if name in sys.modules)))
"""

SERVING_RUN = """
import json, sys

import repro.serving
from repro.core.state import NUM_STATES
from repro.models.registry import ModelRegistry
from repro.serving.service import PolicyService

service = PolicyService(ModelRegistry(sys.argv[1]), "served")
assert len(service.model.qtable.best_modes(list(range(NUM_STATES)))) == NUM_STATES
print(json.dumps(sorted(name for name in ("numpy",) if name in sys.modules)))
"""


def _loaded_in_fresh_interpreter(script: str, *args: str) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_serial_run_loads_no_numpy_asyncio_http_or_multiprocessing():
    assert _loaded_in_fresh_interpreter(SERIAL_RUN, *SERIAL_FORBIDDEN) == []


def test_model_serving_loads_no_numpy(tmp_path):
    registry = make_registry(tmp_path / "models", make_artifact(seed=23))
    assert _loaded_in_fresh_interpreter(SERVING_RUN, str(registry.root)) == []
