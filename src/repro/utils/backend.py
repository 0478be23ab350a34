"""The simulation-core backend switch (``REPRO_CORE_BACKEND``).

Two hot kernels of the simulation core — the event loop in
:mod:`repro.sim.engine` and the set-associative cache model in
:mod:`repro.soc.cache` — ship in two implementations:

* ``reference`` — the canonical pure-Python implementations, kept
  deliberately simple and stable.  They define the semantics.
* ``vectorized`` — the performance implementations: cohort draining of
  same-timestamp events and specialised cache range walks.

Both backends are **bit-identical by contract**: the differential-testing
harness (``tests/test_core_differential.py``) drives generated scenarios
and the quick figure grids through both and asserts equal payload
digests, work counts, and checksums, and ``repro.perf compare`` gates
every benchmark on exact work counts and checksums.  See
``docs/performance.md``.

The backend is selected per *object construction* (an ``Engine`` and a
``SetAssociativeCache`` each capture the active backend when built), so a
sweep worker process picks the backend up from its inherited environment
and an in-process test can flip it with :func:`core_backend`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.errors import ConfigurationError

#: Environment variable holding the backend selection.
CORE_BACKEND_ENV = "REPRO_CORE_BACKEND"

#: The recognised backend names.
CORE_BACKENDS = ("reference", "vectorized")

#: Backend used when the environment does not specify one.
DEFAULT_CORE_BACKEND = "vectorized"


def normalize_backend(value: Optional[str]) -> str:
    """Validate ``value`` as a backend name; ``None`` means the default.

    Raises :class:`~repro.errors.ConfigurationError` on anything that is
    not one of :data:`CORE_BACKENDS` (after stripping and lower-casing).
    """
    if value is None:
        return DEFAULT_CORE_BACKEND
    name = value.strip().lower()
    if name not in CORE_BACKENDS:
        raise ConfigurationError(
            f"unknown core backend {value!r}; known: {', '.join(CORE_BACKENDS)}"
        )
    return name


def active_backend() -> str:
    """Return the currently selected core backend.

    Reads :data:`CORE_BACKEND_ENV` (default :data:`DEFAULT_CORE_BACKEND`).
    Hot objects call this once at construction, never per operation.
    """
    return normalize_backend(os.environ.get(CORE_BACKEND_ENV))


@contextmanager
def core_backend(name: str) -> Iterator[str]:
    """Temporarily select backend ``name`` for the duration of the block.

    The selection is made through the environment so that worker processes
    spawned inside the block (e.g. by the ``process`` sweep backend)
    inherit it.  Nested uses restore the previous selection on exit.
    """
    resolved = normalize_backend(name)
    previous = os.environ.get(CORE_BACKEND_ENV)
    os.environ[CORE_BACKEND_ENV] = resolved
    try:
        yield resolved
    finally:
        if previous is None:
            os.environ.pop(CORE_BACKEND_ENV, None)
        else:
            os.environ[CORE_BACKEND_ENV] = previous
