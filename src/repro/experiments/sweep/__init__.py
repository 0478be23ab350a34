"""Parallel sweep orchestration for the experiment harnesses.

The subsystem has five layers plus a CLI:

* :mod:`repro.experiments.sweep.sweep` — declarative :class:`SweepSpec` /
  :class:`Job` grids with stable fingerprints and per-job RNG derivation;
* :mod:`repro.experiments.sweep.backends` — pluggable
  :class:`ExecutionBackend` implementations (serial, process pool, thread
  pool, batched dispatch) behind one incremental-completion contract;
* :mod:`repro.experiments.sweep.distributed` — the coordinator/worker
  execution layer (:class:`DistributedBackend`) serving work leases over
  HTTP to pull workers on other hosts;
* :mod:`repro.experiments.sweep.config` — :class:`RunConfig`, the one
  frozen description of how a sweep executes, shared by the
  programmatic API and every CLI front end;
* :mod:`repro.experiments.sweep.pool` — :class:`SweepRunner`, which
  orchestrates cache, manifest, shard, and backend for each spec;
* :mod:`repro.experiments.sweep.cache` — :class:`ResultCache`, an on-disk
  JSON store keyed by job fingerprints;
* :mod:`repro.experiments.sweep.manifest` / ``shard`` / ``merge`` —
  checkpointed sweep manifests, deterministic fingerprint sharding, and
  the validated ``merge-shards`` fusion they enable;
* :mod:`repro.experiments.sweep.cli` — ``python -m repro.experiments`` to
  run any figure by name with ``--workers`` / ``--backend`` / ``--cache-dir``
  / ``--resume`` / ``--shard``, plus the ``merge-shards`` subcommand.

The distributed layer and the pooled backends are imported on first use,
so a serial sweep loads neither asyncio nor multiprocessing.
"""

import importlib

from repro.experiments.sweep.backends import (
    BACKEND_NAMES,
    ExecutionBackend,
    create_backend,
)
from repro.experiments.sweep.cache import ResultCache
from repro.experiments.sweep.config import RunConfig, add_runner_arguments
from repro.experiments.sweep.manifest import SweepManifest, grid_digest, payload_digest
from repro.experiments.sweep.merge import MergeReport, discover_shard_manifests, merge_shards
from repro.experiments.sweep.pool import (
    SweepResult,
    SweepRunner,
    autodetect_workers,
    run_spec,
)
from repro.experiments.sweep.shard import (
    ShardIncompleteError,
    ShardSpec,
    lease_partition,
)
from repro.experiments.sweep.sweep import Job, SweepSpec, canonicalize

#: Names loaded on first access: the distributed layer brings asyncio and
#: the HTTP stack, and the pooled backends bring multiprocessing, none of
#: which a serial run needs.
_LAZY = {
    "BACKENDS": "repro.experiments.sweep.backends",
    "BatchBackend": "repro.experiments.sweep.backends",
    "DistributedBackend": "repro.experiments.sweep.distributed",
    "run_worker": "repro.experiments.sweep.distributed",
}


def __getattr__(name: str) -> object:
    """Import one of the :data:`_LAZY` names on first access."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_LAZY[name]), name)
    globals()[name] = value
    return value


__all__ = [
    "BACKENDS",
    "BACKEND_NAMES",
    "BatchBackend",
    "DistributedBackend",
    "ExecutionBackend",
    "Job",
    "MergeReport",
    "ResultCache",
    "RunConfig",
    "ShardIncompleteError",
    "ShardSpec",
    "SweepManifest",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "add_runner_arguments",
    "autodetect_workers",
    "canonicalize",
    "create_backend",
    "discover_shard_manifests",
    "grid_digest",
    "lease_partition",
    "merge_shards",
    "payload_digest",
    "run_spec",
]
