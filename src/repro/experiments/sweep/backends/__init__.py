"""Pluggable execution backends for the sweep runner.

The package exposes a tiny registry mapping stable names to
:class:`~repro.experiments.sweep.backends.base.ExecutionBackend`
implementations:

========== =========================================================
``serial``  one job after another in the calling process (reference)
``process`` a ``multiprocessing`` pool with a warned serial fallback
``thread``  a ``concurrent.futures`` thread pool
``batch``   the process pool, dispatching job *groups* per round-trip
========== =========================================================

The distributed coordinator backend
(:class:`~repro.experiments.sweep.distributed.DistributedBackend`) also
implements the protocol but is not name-registered — it needs host/port
configuration, so it is constructed explicitly (or via the
``coordinate`` subcommand) and passed as an instance.

All backends satisfy the same contract — every pending job executed
exactly once, completions reported incrementally on the calling thread —
and all produce bit-identical payloads, because determinism lives in the
jobs (fingerprint-derived RNG streams), not in the executor.
"""

from __future__ import annotations

import importlib
from typing import Dict, Optional, Tuple, Type, Union

from repro.errors import SweepError
from repro.experiments.sweep.backends.base import ExecutionBackend, ResultCallback
from repro.experiments.sweep.backends.serial import SerialBackend

#: Each registered backend's class name; it lives in the submodule named
#: after the backend.  Only ``serial`` is imported with the package; the
#: others (and the ``multiprocessing`` and ``concurrent.futures``
#: machinery behind them) load on first use, so a serial run never pays
#: for them.
_BACKEND_CLASSES: Dict[str, str] = {
    "batch": "BatchBackend",
    "process": "ProcessPoolBackend",
    "serial": "SerialBackend",
    "thread": "ThreadPoolBackend",
}

#: Backend names in stable (sorted) order, for CLI choices and docs.
BACKEND_NAMES: Tuple[str, ...] = tuple(sorted(_BACKEND_CLASSES))


def _backend_class(name: str) -> Type[ExecutionBackend]:
    """The backend class registered as ``name``, importing it if needed."""
    if name not in _BACKEND_CLASSES:
        raise SweepError(
            f"unknown execution backend {name!r}; choose from {', '.join(BACKEND_NAMES)}"
        )
    module = importlib.import_module(f"{__name__}.{name}")
    return getattr(module, _BACKEND_CLASSES[name])


def create_backend(
    spec: Union[str, ExecutionBackend, None],
    workers: int,
    jobs_per_lease: Optional[int] = None,
) -> ExecutionBackend:
    """Resolve a backend argument to an instance.

    ``None`` selects the default policy: the process pool when more than
    one worker is requested, otherwise serial.  A string is looked up in
    the registry; an :class:`ExecutionBackend` instance passes through.
    ``jobs_per_lease`` configures lease granularity for backends that
    batch dispatch (currently ``batch``); others ignore it.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    if spec is None:
        spec = "process" if workers > 1 else "serial"
    cls = _backend_class(spec)
    if spec == "batch":
        return cls(jobs_per_lease=jobs_per_lease)  # type: ignore[call-arg]
    return cls()


def __getattr__(name: str) -> object:
    """Import a backend class, or ``BACKENDS`` (all of them), on first access."""
    if name == "BACKENDS":
        value: object = {key: _backend_class(key) for key in BACKEND_NAMES}
    elif name in _BACKEND_CLASSES.values():
        value = next(
            _backend_class(key) for key, class_name in _BACKEND_CLASSES.items() if class_name == name
        )
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


__all__ = [
    "BACKENDS",
    "BACKEND_NAMES",
    "BatchBackend",
    "ExecutionBackend",
    "ProcessPoolBackend",
    "ResultCallback",
    "SerialBackend",
    "ThreadPoolBackend",
    "create_backend",
]
