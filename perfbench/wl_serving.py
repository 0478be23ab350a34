"""``serving-decide``: the policy server under an open-loop decision load.

The server is a real ``python -m repro.serving serve`` process serving a
seeded Q-table artifact built as ``repro.perf``'s serving benchmark
builds it (a frozen Cohmeleon policy after 3000 seeded updates; here the
update stream is seeded from the workload seed).  Load comes from one
:mod:`loadgen` process with two keep-alive connections, which sends
``/v1/decide`` requests on seeded Poisson schedules: a warm-up, then the
reference rate, then a fixed ladder of rates that stops at the first
rate missing the p99 limit.  Every decision in every response is checked
against an offline ``QTable.best_modes`` of the same artifact.

:mod:`hostspeed` samples every CPU the server may run on, so the
server's CPU time can be rescaled to the reference host speed for the
bounded rate.  Neither the server nor the generator is pinned: pinned
to separate CPUs, the generator fell behind its schedule far more often.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import layers
from common import HERE, ROOT, WORK, BenchmarkError, child_env, fresh_trace, own_peak_mb, process_peak_mb, python
from hostspeed import SpeedMonitor, host_cpus
from loadgen import build_schedule
from outcome import Outcome
from stats import describe, percentile, summarize
from tracing import profile, read_chunks

MODEL = "bench-serving"
CONNECTIONS = 2
LIMIT_MS = 5.0
#: A step where the generator's own lag p99 exceeds this is invalid.
LAG_LIMIT_MS = 1.0
WARMUP = {"name": "warmup", "rate": 500.0, "count": 500}
REFERENCE_RATE = 1000.0
#: Requests per second of run time at the reference rate and per ladder
#: step: a 30 s run sends 6000 requests at the reference rate and 7500 at
#: each ladder rate.
REFERENCE_PER_S = 200
LADDER_PER_S = 250
#: Offered rates in requests per second, 15 % apart.
LADDER = tuple(round(2000 * 1.15 ** step) for step in range(10))
SERVER_STARTS = 5
START_TIMEOUT_S = 60.0
GENERATOR_TIMEOUT_S = 150.0


def build_artifact(seed: int, models_dir: Path):
    """Save the seeded artifact; return its frozen Q-table and digest."""
    from repro.core.policies import CohmeleonPolicy
    from repro.core.state import NUM_STATES
    from repro.models.artifact import PolicyArtifact, build_provenance
    from repro.models.registry import ModelRegistry
    from repro.soc.coherence import COHERENCE_MODES
    from repro.utils.rng import SeededRNG

    policy = CohmeleonPolicy(rng=SeededRNG(11))
    table = policy.agent.qtable
    fill = SeededRNG(seed)
    for _ in range(3000):
        table.update(
            fill.randint(0, NUM_STATES - 1),
            COHERENCE_MODES[fill.randint(0, len(COHERENCE_MODES) - 1)],
            fill.uniform(-1.0, 1.0),
            0.1,
        )
    policy.freeze()
    artifact = PolicyArtifact.from_policy(
        policy, MODEL, build_provenance(MODEL, "0" * 64, seed, 0)
    )
    ModelRegistry(models_dir).save(artifact, replace=True)
    return table, artifact.digest


class Server:
    """One server process; started by ``start``, stopped by ``stop``."""

    def __init__(self, models_dir: Path, trace: Optional[Tuple[Path, str]] = None) -> None:
        serve = ["serve", MODEL, "--models-dir", str(models_dir), "--reload-interval", "0"]
        if trace is None:
            self.argv = python("-m", "repro.serving", *serve)
        else:
            path, run_id = trace
            self.argv = python(str(HERE / "serve_launcher.py"), str(path), run_id, *serve)
        self.process: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> Tuple[float, float]:
        """Start the server; return the ``time.monotonic`` interval until it listens with the model loaded."""
        start = time.monotonic()
        self.process = subprocess.Popen(
            self.argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
        )
        ready, _, _ = select.select([self.process.stdout], [], [], START_TIMEOUT_S)
        banner = self.process.stdout.readline() if ready else ""  # type: ignore[union-attr]
        ready_at = time.monotonic()
        if " on http://" not in banner:
            self.stop()
            raise BenchmarkError(f"server did not start: {banner.strip()!r}")
        self.port = int(banner.strip().rsplit(":", 1)[1].strip("/"))
        return start, ready_at

    def stop(self) -> None:
        """Interrupt the server and wait for it to exit."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()  # type: ignore[union-attr]
        self.process = None


def _plan(seed: int, seconds: float, server: Server, ladder: Sequence[int]) -> Dict[str, object]:
    from repro.core.state import NUM_STATES

    reference = {"name": "reference", "rate": REFERENCE_RATE, "count": max(1000, round(REFERENCE_PER_S * seconds))}
    steps = [dict(WARMUP, seed=seed * 1000 + 1), dict(reference, seed=seed * 1000 + 2)]
    return {
        "host": "127.0.0.1",
        "port": server.port,
        "server_pid": server.process.pid,  # type: ignore[union-attr]
        "connections": CONNECTIONS,
        "num_states": NUM_STATES,
        "limit_s": LIMIT_MS / 1000.0,
        "lag_limit_s": LAG_LIMIT_MS / 1000.0,
        "steps": steps,
        "ladder": {
            "rates": list(ladder),
            "count": max(1000, round(LADDER_PER_S * seconds)),
            "seed": seed * 1000 + 100,
        },
    }


def drive(plan: Dict[str, object], tag: str) -> List[Dict[str, object]]:
    """Run the load generator process on ``plan``; return its steps."""
    plan_path = WORK / f"plan-{tag}.json"
    result_path = WORK / f"load-{tag}.json"
    plan_path.write_text(json.dumps(plan))
    try:
        subprocess.run(
            python(str(HERE / "loadgen.py"), str(plan_path), str(result_path)),
            cwd=ROOT, env=child_env(), check=True, timeout=GENERATOR_TIMEOUT_S,
        )
        return json.loads(result_path.read_text())["steps"]
    finally:
        plan_path.unlink(missing_ok=True)
        result_path.unlink(missing_ok=True)


def verify(outcome: Outcome, steps: Sequence[Dict[str, object]], table, digest: str, num_states: int) -> None:
    """Check every decision against an offline ``best_modes`` of the same table."""
    for step in steps:
        _, states = build_schedule(int(step["seed"]), float(step["rate"]), int(step["count"]), num_states)  # type: ignore[arg-type]
        wrong = 0
        for request, code, decisions in zip(states, step["status"], step["decisions"]):  # type: ignore[arg-type]
            expected = [mode.label for mode in table.best_modes(request)]
            if code == 200 and decisions != expected:
                wrong += 1
        outcome.check(wrong == 0, f"serving step {step['name']}: {wrong} responses disagree with best_modes")
        outcome.check(
            step["digests"] in ([], [digest]),
            f"serving step {step['name']}: served digests {step['digests']} != artifact {digest}",
        )
        failed = sum(1 for code in step["status"] if code != 200)  # type: ignore[union-attr]
        outcome.attempted += len(step["status"])  # type: ignore[arg-type]
        outcome.failed += failed


def _latencies_ms(step: Dict[str, object]) -> List[float]:
    return [value * 1000.0 for value in step["latency_s"]]  # type: ignore[union-attr]


def _step_line(step: Dict[str, object]) -> str:
    lag = percentile(step["lag_s"], "99") * 1000.0  # type: ignore[arg-type]
    verdict = "meets" if step["passed"] else "misses"
    validity = "" if step["valid"] else ", INVALID (generator lag)"
    return (
        f"{step['name']} @ {step['rate']:g}/s: {describe(summarize(_latencies_ms(step)), 'ms')}; "
        f"lag p99 {lag:.3f} ms; {verdict} p99 <= {LIMIT_MS:g} ms{validity}"
    )


def max_rate(steps: Sequence[Dict[str, object]]) -> float:
    """Highest ladder rate that met the limit."""
    passed = [float(step["rate"]) for step in steps if str(step["name"]).startswith("ladder") and step["passed"]]  # type: ignore[arg-type]
    return max(passed, default=0.0)


def capacity(steps: Sequence[Dict[str, object]], monitor: SpeedMonitor, cpus: Sequence[int]) -> Tuple[float, float]:
    """Requests per server CPU second over the reference step and first ladder step.

    Both steps run on every run at the same rates, so unlike the ladder's
    outcome this rate does not depend on where a noisy host made the
    ladder stop.  It is the rate one core of the server sustains.
    Returns ``(rate at the reference host speed, rate of raw CPU time)``;
    the server ran on ``cpus``, whose speed ``monitor`` sampled.
    """
    first = f"ladder-{LADDER[0]:g}"
    fixed = [step for step in steps if step["name"] in ("reference", first)]
    requests = sum(len(step["status"]) for step in fixed)  # type: ignore[arg-type]
    raw = sum(float(step["server_cpu_s"]) for step in fixed)  # type: ignore[arg-type]
    reference = sum(
        float(step["server_cpu_s"]) * monitor.relative_speed(*step["interval"], cpus)  # type: ignore[arg-type, misc]
        for step in fixed
    )
    if raw <= 0:
        return 0.0, 0.0
    return requests / reference, requests / raw


def run(seed: int, seconds: float) -> Outcome:
    from repro.core.state import NUM_STATES

    outcome = Outcome()
    models_dir = WORK / f"models-{os.getpid()}"
    table, digest = build_artifact(seed, models_dir)
    starts: List[Tuple[float, float]] = []
    cpus = host_cpus()
    server = Server(models_dir)
    try:
        with SpeedMonitor(cpus) as monitor:
            for index in range(SERVER_STARTS):
                starts.append(server.start())
                if index < SERVER_STARTS - 1:
                    server.stop()
            peak = own_peak_mb()
            steps = drive(_plan(seed, seconds, server, LADDER), f"{os.getpid()}")
            peak += process_peak_mb(server.process.pid)  # type: ignore[union-attr]
    finally:
        server.stop()
        shutil.rmtree(models_dir, ignore_errors=True)
    setups = [monitor.reference_seconds(began, ended, cpus) for began, ended in starts]
    start_walls = [ended - began for began, ended in starts]
    verify(outcome, steps, table, digest, NUM_STATES)

    reference = next(step for step in steps if step["name"] == "reference")
    latencies = _latencies_ms(reference)
    best = max_rate(steps)
    rate, raw_rate = capacity(steps, monitor, cpus)
    invalid = [step["name"] for step in steps if not step["valid"]]
    outcome.metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak,
        "throughput_per_s": rate,
    }
    for step in steps:
        outcome.say(_step_line(step))
    outcome.say(
        f"decide_p50_ms {percentile(latencies, '50'):.4f} ms, decide_p99_ms "
        f"{percentile(latencies, '99'):.4f} ms at {REFERENCE_RATE:g}/s (n={len(latencies)})"
    )
    outcome.say(f"max_decide_rate: {best:g} 1/s (ladder {LADDER[0]}..{LADDER[-1]} 1/s, 15 % apart)")
    outcome.say(
        f"requests per server CPU second: {rate:.5g} 1/s at the reference host speed, "
        f"{raw_rate:.5g} 1/s of raw CPU time"
    )
    outcome.say(f"open loop, {CONNECTIONS} keep-alive connections; invalid steps: {invalid or 'none'}")
    outcome.say(
        f"setup_s (server start and model load): {describe(summarize(setups), 's')} at the reference host speed"
    )
    outcome.say(f"server start wall: {describe(summarize(start_walls), 's')}")
    return outcome


def run_traced(seed: int, seconds: float, run_id: str) -> Outcome:
    """The reference rate against an untraced and then a traced server."""
    from repro.core.state import NUM_STATES

    outcome = Outcome()
    models_dir = WORK / f"models-{os.getpid()}"
    table, digest = build_artifact(seed, models_dir)
    trace_path = fresh_trace("serving", run_id)
    results = {}
    try:
        for label, trace in (("untraced", None), ("traced", (trace_path, run_id))):
            server = Server(models_dir, trace)
            try:
                server.start()
                plan = _plan(seed, seconds, server, ())
                results[label] = drive(plan, f"{os.getpid()}-{label}")
            finally:
                server.stop()
    finally:
        shutil.rmtree(models_dir, ignore_errors=True)
    for steps in results.values():
        verify(outcome, steps, table, digest, NUM_STATES)
    outcome.check(
        [s["decisions"] for s in results["traced"]] == [s["decisions"] for s in results["untraced"]],
        "serving: traced decisions differ from untraced",
    )
    prof = profile(read_chunks(str(trace_path)))
    untraced = next(step for step in results["untraced"] if step["name"] == "reference")
    traced = next(step for step in results["traced"] if step["name"] == "reference")
    client_s = sum(sum(step["latency_s"]) for step in results["traced"])  # type: ignore[misc]
    server_s = prof.total_s.get("net.dispatch", 0.0)
    untraced_p50 = statistics.median(_latencies_ms(untraced))
    traced_p50 = statistics.median(_latencies_ms(traced))
    outcome.metrics = layers.per_layer_metrics(prof, {
        "loadgen.lag_p99_ms": percentile(traced["lag_s"], "99") * 1000.0,  # type: ignore[arg-type]
        "trace.overhead_pct": (traced_p50 / untraced_p50 - 1.0) * 100.0,
        # The share of the latency clients saw that the server's dispatch covers.
        "trace.coverage_pct": server_s / client_s * 100.0 if client_s else 0.0,
    })
    outcome.say(f"reference p50 traced {traced_p50:.4f} ms against untraced {untraced_p50:.4f} ms")
    return outcome
