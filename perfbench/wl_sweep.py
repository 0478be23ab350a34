"""``sweep-isolation``: the Figure 2 grid through the sweep runner, cold then warm.

One iteration builds a fresh result cache and manifest directory, runs
the full 144-job isolation grid (every library accelerator, three sizes,
four modes) through ``SweepRunner(RunConfig(workers=2, cache=...,
manifest_dir=...))`` with the runner's default backend — the *cold*
pass, which executes every job on the process pool and writes each
payload to the cache and manifest — and then runs the same grid
:data:`WARM_PASSES` times more, each a *warm* pass served entirely from
the cache the cold pass wrote.  The setup carries the workload seed, so
every seed is a fresh grid with its own job fingerprints.

The bounded rate is the run's cold-pass jobs over its total cold-pass
time, not a median of per-pass rates: a cold pass lasts about a second,
so a median of a few passes follows short swings in the speed of a
shared host.  Each cold pass's wall time is first rescaled to the
reference host speed with :mod:`hostspeed`, sampled on every CPU the
parent and the pool workers may run on; the raw wall-time rate is
printed beside it.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import statistics
import time
from typing import List, Tuple

import layers
from common import HERE, WORK, check_ledger, children_peak_mb, fresh_trace, own_peak_mb, payload_digest, python, timed_setups
from hostspeed import SpeedMonitor, host_cpus
from outcome import Outcome
from stats import describe, summarize
from tracing import Site, Tracer, install, profile, read_chunks

WORKERS = 2
WARM_PASSES = 3
MIN_ITERATIONS = 2
SETUP_REPEATS = 5


def _setup(seed: int):
    from repro.experiments.common import motivation_setup

    return dataclasses.replace(motivation_setup(line_bytes=256), seed=seed)


def sweep_pass(setup, directory: str, tracer: "Tracer | None" = None) -> Tuple[float, float, int, str]:
    """One timed pass of the grid: ``(start, end, jobs, payload digest)``.

    ``start`` and ``end`` are ``time.monotonic`` readings, the clock the
    host speed samples use.
    """
    from repro.experiments.isolation import run_isolation_experiment
    from repro.experiments.sweep import ResultCache, RunConfig, SweepRunner

    runner = SweepRunner(
        config=RunConfig(
            workers=WORKERS,
            cache=ResultCache(os.path.join(directory, "cache")),
            manifest_dir=os.path.join(directory, "manifests"),
        )
    )
    root = tracer.begin("bench.sweep_pass") if tracer is not None else -1
    start = time.monotonic()
    measurements = run_isolation_experiment(setup, runner=runner)
    end = time.monotonic()
    if tracer is not None:
        tracer.end(root)
    payload = [
        [m.accelerator_name, m.size_label, m.footprint_bytes, m.mode.label, m.exec_cycles, m.ddr_accesses]
        for m in measurements
    ]
    return start, end, len(measurements), payload_digest(payload)


def iteration(
    outcome: Outcome, setup, index: int, tracer: "Tracer | None" = None
) -> Tuple[Tuple[float, float], List[float], int, str]:
    """Cold pass plus warm passes in a fresh directory.

    Returns ``((cold start, cold end), warm walls, jobs, digest)``.
    """
    directory = str(WORK / f"sweep-{os.getpid()}-{index}")
    shutil.rmtree(directory, ignore_errors=True)
    try:
        cold_start, cold_end, jobs, digest = sweep_pass(setup, directory, tracer)
        outcome.attempted += jobs
        warm = []
        for _ in range(WARM_PASSES):
            warm_start, warm_end, warm_jobs, warm_digest = sweep_pass(setup, directory, tracer)
            outcome.attempted += warm_jobs
            outcome.check(
                warm_digest == digest,
                f"sweep seed {setup.seed}: warm digest {warm_digest} != cold {digest}",
            )
            warm.append(warm_end - warm_start)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return (cold_start, cold_end), warm, jobs, digest


def run(seed: int, seconds: float) -> Outcome:
    outcome = Outcome()
    setup = _setup(seed)
    jobs = 0
    cold_intervals: List[Tuple[float, float]] = []
    warms: List[float] = []
    digests = set()
    cpus = host_cpus()
    with SpeedMonitor(cpus) as monitor:
        start = time.perf_counter()
        while len(cold_intervals) < MIN_ITERATIONS or time.perf_counter() - start < seconds:
            try:
                cold, warm, jobs, digest = iteration(outcome, setup, len(cold_intervals))
            except Exception as exc:  # noqa: BLE001 - a failed pass is counted, not fatal
                outcome.attempted += 1
                outcome.failed += 1
                outcome.errors.append(f"sweep seed {seed}: {type(exc).__name__}: {exc}")
                break
            cold_intervals.append(cold)
            warms.extend(warm)
            digests.add(digest)
    colds = [end - begin for begin, end in cold_intervals]
    reference_s = sum(monitor.reference_seconds(begin, end, cpus) for begin, end in cold_intervals)
    outcome.check(len(digests) <= 1, f"sweep seed {seed}: digests differ across iterations: {digests}")
    for digest in digests:
        check_ledger(outcome, "sweep-isolation", seed, digest)

    # Measured before the set-up probes, which are child processes too.
    peak = own_peak_mb() + children_peak_mb()
    setups, setup_walls = timed_setups(
        python(str(HERE / "setup_probe.py"), "sweep-isolation", str(seed)), SETUP_REPEATS
    )
    jobs_per_s = [jobs / wall for wall in colds]
    cached_per_s = [jobs / wall for wall in warms]
    rate = jobs * len(colds) / reference_s if colds else 0.0
    raw_rate = jobs * len(colds) / sum(colds) if colds else 0.0
    outcome.metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak,
        "throughput_per_s": rate,
    }
    outcome.say(f"{jobs} jobs per pass, {WORKERS} workers, {len(colds)} cold and {len(warms)} warm passes")
    outcome.say(
        f"jobs_per_s (cold): {rate:.5g} 1/s at the reference host speed, {raw_rate:.5g} 1/s of wall "
        f"time, over all cold passes; per pass {describe(summarize(jobs_per_s), '1/s')}"
    )
    outcome.say(f"cached_jobs_per_s (warm): {describe(summarize(cached_per_s), '1/s')}")
    outcome.say(f"cold pass: {describe(summarize([w * 1000.0 for w in colds]), 'ms')}")
    outcome.say(f"warm pass: {describe(summarize([w * 1000.0 for w in warms]), 'ms')}")
    outcome.say(f"setup_s: {describe(summarize(setups), 's')} at the reference host speed")
    outcome.say(f"setup wall: {describe(summarize(setup_walls), 's')}")
    return outcome


def _job_site(tracer: Tracer, trace_path: str) -> Site:
    """Root span around each job; a pool worker writes its spans after each job.

    Pool workers inherit the wrappers and the tracer when the pool forks.
    A worker drops the copy of the parent's spans before its first job,
    and writes its own spans after every job because the pool terminates
    its workers without running exit handlers.  Each worker appends to
    its own files, ``<trace_path>.<pid>`` and its ``.spans``.
    """
    from repro.experiments.sweep.backends import process

    parent = os.getpid()

    def before(args: tuple) -> None:
        if tracer.pid != os.getpid():
            tracer.reset()

    def after(tracer_: Tracer, args: tuple, result: object, token) -> None:
        if os.getpid() != parent:
            tracer.write(f"{trace_path}.{os.getpid()}")
            tracer.reset()

    return Site(process, "execute_job", "bench.job", before=before, after=after)


def run_traced(seed: int, seconds: float, run_id: str) -> Outcome:
    """One untraced and one traced iteration; per-layer metrics of the traced one."""
    outcome = Outcome()
    setup = _setup(seed)
    (untraced_start, untraced_end), untraced_warm, _, digest = iteration(outcome, setup, 0)
    path = fresh_trace("sweep", run_id)
    tracer = Tracer(layers.SPAN_NAMES, run_id)
    sites = layers.sweep_sites() + layers.simulation_sites() + [_job_site(tracer, str(path))]
    installation = install(tracer, sites)
    try:
        (cold_start, cold_end), warm, _, traced_digest = iteration(outcome, setup, 1, tracer)
    finally:
        installation.restore()
    outcome.check(
        traced_digest == digest, f"sweep seed {seed}: traced digest {traced_digest} != untraced {digest}"
    )
    tracer.write(str(path))
    chunks = [
        chunk
        for part in sorted(WORK.glob(f"{path.name}*"))
        if part.suffix != ".spans"
        for chunk in read_chunks(str(part))
    ]
    prof = profile(chunks, roots=layers.ROOTS, layer_names=layers.LAYER_SPANS)
    untraced = untraced_end - untraced_start + sum(untraced_warm)
    traced = cold_end - cold_start + sum(warm)
    outcome.metrics = layers.per_layer_metrics(prof, {
        "trace.overhead_pct": (traced / untraced - 1.0) * 100.0,
        "trace.coverage_pct": prof.coverage("bench.sweep_pass") * 100.0,
    })
    outcome.say(
        f"traced cold+warm {traced:.3f} s against untraced {untraced:.3f} s; spans in {path.name}"
    )
    return outcome
