"""Pieces every workload shares: paths, child processes, memory, digests."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from hostspeed import SpeedMonitor, host_cpus, pinned

#: The checkout root: the benchmark always runs from it.
ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: Scratch space for caches, manifests, registries and traces; inside
#: the checkout and ignored by git.
WORK = ROOT / ".perfbench-work"


class BenchmarkError(RuntimeError):
    """A workload failed its correctness check or could not run."""


def require_program() -> None:
    """Fail unless the program's sources are in the checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(
            f"no program sources at {SRC}; run from the root of a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: the program and the benchmark on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def python(*args: str) -> List[str]:
    """Command line running this interpreter."""
    return [sys.executable, *args]


def run_child(argv: Sequence[str], timeout: float = 120.0) -> str:
    """Run a child process to completion; return its stdout or raise."""
    done = subprocess.run(
        list(argv), env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=timeout,
    )
    if done.returncode != 0:
        raise BenchmarkError(
            f"{' '.join(argv)} exited with {done.returncode}: {done.stderr.strip()[-2000:]}"
        )
    return done.stdout


def timed_setups(argv: Sequence[str], repeats: int) -> Tuple[List[float], List[float]]:
    """``repeats`` runs of a set-up probe, each a fresh process on one CPU.

    Returns the seconds of each run at the reference host speed (see
    :mod:`hostspeed`) and its wall seconds.
    """
    cpu = host_cpus()[0]
    intervals = []
    with pinned(cpu), SpeedMonitor([cpu]) as monitor:
        for _ in range(repeats):
            start = time.monotonic()
            run_child(argv)
            intervals.append((start, time.monotonic()))
    reference = [monitor.reference_seconds(start, end, [cpu]) for start, end in intervals]
    return reference, [end - start for start, end in intervals]


def check_ledger(outcome, workload: str, seed: int, digest: str) -> None:
    """Check ``digest`` against the one an earlier run of this seed recorded.

    The ledger lives in the checkout's work directory, so every run of a
    seed in one checkout must reproduce the first run's payload digest.
    """
    path = WORK / f"digests-{workload}.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    recorded = ledger.setdefault(str(seed), digest)
    outcome.check(
        recorded == digest,
        f"{workload} seed {seed}: digest {digest} differs from {recorded} of an earlier run",
    )
    if recorded == digest:
        path.write_text(json.dumps(ledger, sort_keys=True))


def fresh_trace(workload: str, run_id: str) -> Path:
    """Trace path of this run; earlier traces of ``workload`` are deleted first."""
    for old in WORK.glob(f"trace-{workload}-*"):
        old.unlink()
    return WORK / f"trace-{workload}-{run_id}.jsonl"


def own_peak_mb() -> float:
    """Peak RSS of this process so far, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_mb() -> float:
    """Peak RSS of the largest child process waited for so far, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def process_peak_mb(pid: int) -> float:
    """Peak RSS of the running process ``pid`` (``VmHWM``), in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"no VmHWM for process {pid}")


def payload_digest(payload: object) -> str:
    """The digest ``repro.perf`` uses for result payloads (first 16 hex chars)."""
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
