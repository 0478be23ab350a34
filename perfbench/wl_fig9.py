"""``fig9``: the paper's Figure 9 / Section 6 policy comparison, in process.

One operation is one ``run_soc_comparison`` on SoC1 and SoC6 with all
eight policies and one training iteration, serial, with no result
cache.  A run cycles through :data:`SEEDS_PER_RUN` fixed input seeds
until the run time is spent, each at least once: :data:`ANCHOR_SEED`,
then ``seed + SEED_STRIDE``, ``seed + 2 * SEED_STRIDE``.  The invocations
a comparison simulates vary by seed (576 to 960 at seeds 1 to 12), so a
run averages several, and the seeds do not depend on how fast the
program is; only the number of repeats does.  The anchor seed gives the
inputs of ``repro.perf``'s quick ``fig9_headline``, so every run checks
its payload digest against :data:`ANCHOR_DIGEST`, and every run of a seed
in a checkout must reproduce that seed's payload digest.

The run is pinned to one CPU, and :mod:`hostspeed` samples that CPU's
speed throughout, so each comparison's wall time is rescaled to the
seconds it would have taken at the reference host speed before the rate
is computed; the raw wall-time rate is printed beside it.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Tuple

import layers
from common import HERE, check_ledger, fresh_trace, own_peak_mb, payload_digest, python, timed_setups
from hostspeed import SpeedMonitor, host_cpus, pinned
from outcome import Outcome
from stats import describe, summarize
from tracing import Tracer, install, profile, read_chunks

LABELS = ("SoC1", "SoC6")
SEEDS_PER_RUN = 3
SEED_STRIDE = 100_003
ANCHOR_SEED = 29
ANCHOR_DIGEST = "2c38d8808dbc10ab"
SETUP_REPEATS = 5

#: The paper's Section 6 averages, the only reference the model has.
PAPER = {"speedup_vs_fixed_pct": 38.0, "offchip_reduction_pct": 66.0, "exec_vs_manual": 1.0}


def compare(seed: int, tracer: "Tracer | None" = None) -> Tuple[float, float, int, str, object]:
    """One timed comparison: ``(start, end, invocations, digest, comparison)``.

    ``start`` and ``end`` are ``time.monotonic`` readings, the clock the
    host speed samples use.

    With a ``tracer``, the comparison runs inside a ``bench.comparison``
    root span.
    """
    from repro.experiments.common import STANDARD_POLICY_KINDS
    from repro.experiments.socs import run_soc_comparison
    from repro.experiments.sweep import RunConfig, SweepRunner

    runner = SweepRunner(config=RunConfig(workers=1, backend="serial"))
    root = tracer.begin("bench.comparison") if tracer is not None else -1
    start = time.monotonic()
    comparison = run_soc_comparison(
        labels=LABELS,
        policy_kinds=STANDARD_POLICY_KINDS,
        training_iterations=1,
        seed=seed,
        runner=runner,
    )
    end = time.monotonic()
    if tracer is not None:
        tracer.end(root)
    payload = {
        soc: {name: ev.to_dict() for name, ev in evaluations.items()}
        for soc, evaluations in comparison.evaluations.items()
    }
    invocations = sum(
        len(phase.get("invocations", []))
        for evaluations in payload.values()
        for ev in evaluations.values()
        for phase in ev["result"]["phases"]
    )
    return start, end, invocations, payload_digest(payload), comparison


def _check_digest(outcome: Outcome, seed: int, digest: str) -> None:
    check_ledger(outcome, "fig9", seed, digest)
    if seed == ANCHOR_SEED:
        outcome.check(
            digest == ANCHOR_DIGEST,
            f"fig9 seed {seed}: digest {digest} != anchor {ANCHOR_DIGEST}",
        )


def _report_accuracy(outcome: Outcome, seed: int, comparison: object) -> None:
    from repro.experiments.summary import summarize_headline

    headline = summarize_headline(comparison)  # type: ignore[arg-type]
    simulated = {
        "speedup_vs_fixed_pct": headline.speedup_vs_fixed * 100.0,
        "offchip_reduction_pct": headline.mem_reduction_vs_fixed * 100.0,
        "exec_vs_manual": headline.exec_vs_manual,
    }
    outcome.say(f"simulated Section 6 averages at seed {seed} (SoC1, SoC6; 1 training iteration):")
    for name, value in simulated.items():
        paper = PAPER[name]
        outcome.say(
            f"  {name}: {value:.4g} (paper {paper:g}, error {value - paper:+.4g})"
        )


def setup_seconds(seed: int) -> Tuple[List[float], List[float]]:
    """Fresh-process set-up: imports plus SoC and application construction.

    Returns seconds at the reference host speed and wall seconds.
    """
    return timed_setups(python(str(HERE / "setup_probe.py"), "fig9", str(seed)), SETUP_REPEATS)


def run(seed: int, seconds: float) -> Outcome:
    outcome = Outcome()
    seeds = [ANCHOR_SEED] + [seed + SEED_STRIDE * k for k in range(1, SEEDS_PER_RUN)]
    walls: Dict[int, List[float]] = {op_seed: [] for op_seed in seeds}
    reference: Dict[int, List[float]] = {op_seed: [] for op_seed in seeds}
    counts: Dict[int, int] = {}
    intervals: List[Tuple[int, float, float]] = []
    done = 0
    cpu = host_cpus()[0]
    with pinned(cpu), SpeedMonitor([cpu]) as monitor:
        start = time.perf_counter()
        while done < len(seeds) or time.perf_counter() - start < seconds:
            op_seed = seeds[done % len(seeds)]
            outcome.attempted += 1
            try:
                op_start, op_end, count, digest, comparison = compare(op_seed)
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
                outcome.failed += 1
                outcome.errors.append(f"fig9 seed {op_seed}: {type(exc).__name__}: {exc}")
                break
            _check_digest(outcome, op_seed, digest)
            if done == 0:
                outcome.say(f"anchor seed {ANCHOR_SEED}: payload digest {digest}, expected {ANCHOR_DIGEST}")
            if done == 1:
                _report_accuracy(outcome, op_seed, comparison)
            intervals.append((op_seed, op_start, op_end))
            counts[op_seed] = count
            done += 1
    for op_seed, op_start, op_end in intervals:
        walls[op_seed].append(op_end - op_start)
        reference[op_seed].append(monitor.reference_seconds(op_start, op_end, [cpu]))

    # Each seed weighs the same whatever its number of repeats: the rate
    # is the seeds' invocations over the sum of their median times.
    measured = [op_seed for op_seed in seeds if walls[op_seed]]
    invocations = sum(counts[op_seed] for op_seed in measured)
    reference_s = sum(statistics.median(reference[op_seed]) for op_seed in measured)
    wall_s = sum(statistics.median(walls[op_seed]) for op_seed in measured)
    rate = invocations / reference_s if measured else 0.0
    raw_rate = invocations / wall_s if measured else 0.0
    all_walls = [wall for op_seed in measured for wall in walls[op_seed]]
    per_invocation = [wall * 1000.0 / counts[op_seed] for op_seed in measured for wall in walls[op_seed]]
    peak = own_peak_mb()
    setups, setup_walls = setup_seconds(seed)
    outcome.metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak,
        "throughput_per_s": rate,
    }
    outcome.say(
        f"{done} comparisons of {len(LABELS)} SoCs x 8 policies over seeds "
        f"{', '.join(str(op_seed) for op_seed in seeds)} (invocations {[counts.get(op_seed, 0) for op_seed in seeds]})"
    )
    outcome.say(
        f"sim_invocations_per_s: {rate:.5g} 1/s at the reference host speed, {raw_rate:.5g} 1/s "
        f"of wall time ({invocations} simulated invocations per seed cycle, CPU {cpu})"
    )
    outcome.say(f"host ms per simulated invocation: {describe(summarize(per_invocation), 'ms')}")
    outcome.say(f"comparison wall: {describe(summarize([w * 1000.0 for w in all_walls]), 'ms')}")
    outcome.say(f"setup_s: {describe(summarize(setups), 's')} at the reference host speed")
    outcome.say(f"setup wall: {describe(summarize(setup_walls), 's')}")
    return outcome


def run_traced(seed: int, seconds: float, run_id: str) -> Outcome:
    """One untraced and one traced comparison at ``seed``; per-layer metrics."""
    outcome = Outcome(attempted=2)
    if seed != ANCHOR_SEED:
        outcome.attempted += 1
        _check_digest(outcome, ANCHOR_SEED, compare(ANCHOR_SEED)[3])
    start, end, _, digest, _ = compare(seed)
    wall = end - start
    tracer = Tracer(layers.SPAN_NAMES, run_id)
    installation = install(tracer, layers.simulation_sites() + layers.sweep_sites())
    try:
        start, end, _, traced_digest, _ = compare(seed, tracer)
        traced_wall = end - start
    finally:
        installation.restore()
    outcome.check(
        traced_digest == digest,
        f"fig9 seed {seed}: traced digest {traced_digest} != untraced {digest}",
    )
    _check_digest(outcome, seed, digest)
    path = fresh_trace("fig9", run_id)
    tracer.write(str(path))
    prof = profile(read_chunks(str(path)), roots=layers.ROOTS, layer_names=layers.LAYER_SPANS)
    coverage = prof.coverage("bench.comparison") * 100.0
    outcome.metrics = layers.per_layer_metrics(prof, {
        "trace.overhead_pct": (traced_wall / wall - 1.0) * 100.0,
        "trace.coverage_pct": coverage,
    })
    outcome.say(f"traced comparison {traced_wall:.3f} s against untraced {wall:.3f} s; spans in {path.name}")
    unwrapped = prof.self_s.get("experiments.sweep.run", 0.0) + prof.self_s.get("bench.comparison", 0.0)
    outcome.say(f"layer spans cover {coverage:.1f} % of the comparison; {unwrapped:.3f} s is in no layer")
    return outcome
