"""How fast each CPU of a shared host runs over time, to rescale timings.

On a shared virtual host each CPU can switch between speeds for seconds
at a time (on the 2-CPU host described in ``perfbench/README.md`` a
fixed pure-Python loop took 3.3 ms in one state and 5.2 ms in the other,
in phases of one to a few seconds, independently per CPU), so the same
work takes a different wall time from one run to the next.  A
:class:`SpeedMonitor` runs one sampler process per CPU, pinned to it,
that wakes every :data:`PERIOD_S` seconds and times :func:`probe`, a
fixed piece of pure-Python work that does not use the program under
test.  The probe takes about :data:`REFERENCE_PROBE_S` when the CPU runs
at its reference speed.

:meth:`SpeedMonitor.reference_seconds` turns a wall interval into the
seconds it would have lasted at the reference speed: the interval times
the mean relative speed ``REFERENCE_PROBE_S / probe time`` of the
samples taken on the given CPUs inside it.  Work done is the integral of
speed over time, so a rate over reference seconds does not move when the
host slows down, only when the program does.

Run as a sampler (the monitor starts these itself)::

    python perfbench/hostspeed.py CPU

It prints one JSON list of ``[monotonic time, probe seconds]`` samples
when its standard input closes.
"""

from __future__ import annotations

import contextlib
import json
import os
import select
import subprocess
import sys
import time
from typing import Dict, Iterator, List, Sequence, Tuple

#: Seconds between samples on one CPU; phases last a second or more.
PERIOD_S = 0.05
#: Probe seconds at the reference speed: about the probe's time on the
#: faster of the two speeds of the host described above.
REFERENCE_PROBE_S = 0.0006
#: Probe rounds; sized so a probe takes about REFERENCE_PROBE_S.
PROBE_ROUNDS = 600


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self, amount: int) -> int:
        self.value += amount
        return self.value


def probe() -> int:
    """Fixed work in the simulator's style: dict lookups, attributes, calls, lists."""
    table: Dict[int, _Cell] = {}
    order: List[int] = []
    total = 0
    for index in range(PROBE_ROUNDS):
        key = (index * 2654435761) & 255
        cell = table.get(key)
        if cell is None:
            cell = table[key] = _Cell()
            order.append(key)
        total += cell.bump(index & 7)
        if len(order) > 64:
            del table[order.pop(0)]
    return total


def sample(cpu: int) -> List[Tuple[float, float]]:
    """Pin to ``cpu`` and time :func:`probe` every :data:`PERIOD_S` until stdin closes."""
    os.sched_setaffinity(0, {cpu})
    samples: List[Tuple[float, float]] = []
    while True:
        start = time.monotonic()
        probe()
        samples.append((start, time.monotonic() - start))
        ready, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
        if ready and not sys.stdin.read(1):
            return samples


def host_cpus() -> List[int]:
    """The CPUs this process may run on, in order."""
    return sorted(os.sched_getaffinity(0))


@contextlib.contextmanager
def pinned(cpu: int) -> Iterator[None]:
    """Run the block on ``cpu`` only; processes started in it inherit that."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


class SpeedMonitor:
    """Sampler processes on ``cpus``; use as a context manager."""

    def __init__(self, cpus: Sequence[int]) -> None:
        self.cpus = list(cpus)
        self.samples: Dict[int, List[Tuple[float, float]]] = {}
        self._processes: Dict[int, subprocess.Popen] = {}

    def __enter__(self) -> "SpeedMonitor":
        try:
            for cpu in self.cpus:
                self._processes[cpu] = subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__), str(cpu)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                )
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Stop every sampler and wait for it; keep the samples of those that finished cleanly."""
        processes, self._processes = self._processes, {}
        for cpu, process in processes.items():
            try:
                output, _ = process.communicate(input="", timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.communicate()
                continue
            if process.returncode == 0 and output:
                self.samples[cpu] = [tuple(pair) for pair in json.loads(output)]  # type: ignore[misc]

    def relative_speed(self, start: float, end: float, cpus: Sequence[int]) -> float:
        """Mean of ``REFERENCE_PROBE_S / probe time`` over samples on ``cpus`` in ``[start, end]``.

        An interval shorter than a sampler's delay holds no sample; it
        then takes each CPU's sample nearest to its middle.
        """
        inside = [
            seconds
            for cpu in cpus
            for at, seconds in self.samples.get(cpu, [])
            if start <= at <= end
        ]
        if not inside:
            middle = (start + end) / 2
            inside = [
                min(self.samples[cpu], key=lambda pair: abs(pair[0] - middle))[1]
                for cpu in cpus
                if self.samples.get(cpu)
            ]
        if not inside:
            raise RuntimeError(f"no host speed samples on CPUs {list(cpus)}")
        return sum(REFERENCE_PROBE_S / seconds for seconds in inside) / len(inside)

    def reference_seconds(self, start: float, end: float, cpus: Sequence[int]) -> float:
        """Seconds the interval ``[start, end]`` would have lasted at the reference speed."""
        return (end - start) * self.relative_speed(start, end, cpus)


if __name__ == "__main__":
    print(json.dumps(sample(int(sys.argv[1]))))
