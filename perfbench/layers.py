"""Which public functions of the program each traced workload wraps.

Each layer is named after the package it lives in (``sim.engine``,
``soc.cache``, ...).  Every wrapped call opens a span of its layer's name;
the counter hooks read work counts from the call's arguments, its result
or the counters the program already keeps (``CacheStats``, DRAM
counters, the engine's event count, the agent's update count), so the
counts are deterministic for a given seed.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from tracing import Profile, Site, Tracer

#: Benchmark-level root spans (not layers): what coverage is measured against.
ROOTS = ("bench.comparison", "bench.sweep_pass", "bench.job")

#: Every span name a tracer records: the roots, then the layers.
SPAN_NAMES = ROOTS + (
    "sim.engine",
    "sim.resources",
    "soc.build",
    "soc.cache",
    "soc.datapath",
    "soc.noc",
    "soc.dram",
    "runtime.api",
    "runtime.executor",
    "core.agent",
    "experiments.sweep.run",
    "experiments.sweep.backend",
    "experiments.sweep.cache_get",
    "experiments.sweep.cache_put",
    "experiments.sweep.manifest",
    "net.dispatch",
    "serving.decide",
    "core.qtable.best_modes",
)


# ----------------------------------------------------------------------
# Counter hooks
# ----------------------------------------------------------------------
def _cache_before(args: tuple) -> Tuple[int, int, int]:
    stats = args[0].stats
    return stats.hits, stats.misses, stats.evictions


def _cache_after(tracer: Tracer, args: tuple, result: object, token) -> None:
    cache = args[0]
    stats = cache.stats
    hits, misses = stats.hits - token[0], stats.misses - token[1]
    tracer.count("soc.cache.walk_calls")
    tracer.count("soc.cache.lines", hits + misses)
    tracer.count("soc.cache.hits", hits)
    tracer.count("soc.cache.misses", misses)
    tracer.count("soc.cache.evictions", stats.evictions - token[2])
    if cache.name.startswith("llc"):
        tracer.count("soc.llc.hits", hits)
        tracer.count("soc.llc.misses", misses)


def _install_after(tracer: Tracer, args: tuple, result: object, token) -> None:
    # install_range fills lines without counting hits or misses; the
    # lines it installs are the lines it walked.
    tracer.count("soc.cache.walk_calls")
    tracer.count("soc.cache.lines", int(result))  # type: ignore[arg-type]


def _flush_after(tracer: Tracer, args: tuple, result: object, token) -> None:
    tracer.count("soc.cache.walk_calls")
    tracer.count("soc.cache.lines", result[1])  # type: ignore[index]


def _counter(name: str):
    def after(tracer: Tracer, args: tuple, result: object, token) -> None:
        tracer.count(name)

    return after


def _engine_before(args: tuple) -> int:
    return args[0].events_processed


def _engine_after(tracer: Tracer, args: tuple, result: object, token) -> None:
    tracer.count("sim.engine.events", args[0].events_processed - token)


def _dram_before(args: tuple) -> int:
    return args[0].counters.total


def _dram_after(tracer: Tracer, args: tuple, result: object, token) -> None:
    tracer.count("soc.dram.lines", args[0].counters.total - token)


def _agent_before(args: tuple) -> int:
    return args[0].updates


def _agent_update_after(tracer: Tracer, args: tuple, result: object, token) -> None:
    tracer.count("core.agent.updates", args[0].updates - token)


def _dispatch_after(tracer: Tracer, args: tuple, result: object, token) -> None:
    tracer.count("net.requests")
    if result[0] >= 400:  # type: ignore[index]
        tracer.count("serving.errors")


def _sweep_after(tracer: Tracer, args: tuple, result: object, token) -> None:
    tracer.count("experiments.sweep.jobs_executed", result.executed)  # type: ignore[attr-defined]
    tracer.count("experiments.sweep.cache_hits", result.cache_hits)  # type: ignore[attr-defined]


def _decide_after(tracer: Tracer, args: tuple, result: object, token) -> None:
    tracer.count("serving.decisions", result["count"])  # type: ignore[index]


# ----------------------------------------------------------------------
# Sites
# ----------------------------------------------------------------------
def simulation_sites() -> List[Site]:
    """The simulator's layers, as run by ``fig9`` and by sweep jobs."""
    from repro.core.agent import QLearningAgent
    from repro.runtime.api import EspRuntime
    from repro.runtime.executor import InvocationExecutor
    from repro.sim.engine import Engine
    from repro.sim.resources import BandwidthResource
    from repro.soc.cache import SetAssociativeCache
    from repro.soc.datapath import Datapath
    from repro.soc.dram import DramController
    from repro.soc.noc import MeshNoC
    from repro.soc.soc import Soc

    sites = [
        Site(Engine, "run", "sim.engine", before=_engine_before, after=_engine_after),
        Site(BandwidthResource, "serve", "sim.resources", after=_counter("sim.resources.serve_calls")),
        Site(Soc, "__init__", "soc.build"),
        Site(Soc, "warm_buffer", "soc.build"),
        Site(SetAssociativeCache, "install_range", "soc.cache", after=_install_after),
        Site(SetAssociativeCache, "flush_range", "soc.cache", after=_flush_after),
        Site(Datapath, "dma_read", "soc.datapath", after=_counter("soc.datapath.dma_calls")),
        Site(Datapath, "dma_write", "soc.datapath", after=_counter("soc.datapath.dma_calls")),
        Site(Datapath, "flush_for_invocation", "soc.datapath", after=_counter("soc.datapath.flush_calls")),
        Site(MeshNoC, "transfer", "soc.noc", after=_counter("soc.noc.transfers")),
        Site(EspRuntime, "invoke", "runtime.api", shape="generator"),
        Site(
            InvocationExecutor, "execute", "runtime.executor", shape="generator",
            after=_counter("runtime.executor.invocations"),
        ),
        Site(QLearningAgent, "select_action", "core.agent", after=_counter("core.agent.decisions")),
        Site(QLearningAgent, "update", "core.agent", before=_agent_before, after=_agent_update_after),
        Site(QLearningAgent, "update_batch", "core.agent", before=_agent_before, after=_agent_update_after),
    ]
    for walk in ("access_range", "access_line_run", "access_lines"):
        sites.append(
            Site(SetAssociativeCache, walk, "soc.cache", before=_cache_before, after=_cache_after)
        )
    for method in ("read", "write", "write_back"):
        sites.append(
            Site(DramController, method, "soc.dram", before=_dram_before, after=_dram_after)
        )
    return sites


def sweep_sites() -> List[Site]:
    """The sweep runner's parent-side layers."""
    from repro.experiments.sweep.backends.process import ProcessPoolBackend
    from repro.experiments.sweep.cache import ResultCache
    from repro.experiments.sweep.manifest import SweepManifest
    from repro.experiments.sweep.pool import SweepRunner

    return [
        Site(SweepRunner, "run", "experiments.sweep.run", after=_sweep_after),
        Site(ProcessPoolBackend, "run", "experiments.sweep.backend"),
        Site(ResultCache, "get", "experiments.sweep.cache_get"),
        Site(ResultCache, "put", "experiments.sweep.cache_put"),
        Site(SweepManifest, "mark_done", "experiments.sweep.manifest"),
    ]


def serving_sites() -> List[Site]:
    """The server's request path, installed inside the server process."""
    from repro.core.qtable import QTable
    from repro.serving.http import ServingServer
    from repro.serving.service import PolicyService

    return [
        Site(ServingServer, "dispatch", "net.dispatch", shape="coroutine", after=_dispatch_after),
        Site(PolicyService, "decide", "serving.decide", after=_decide_after),
        Site(QTable, "best_modes", "core.qtable.best_modes"),
    ]


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
#: Self-time metrics and the span whose self time they report.
_SELF_TIMES = {
    "sim.engine.self_s": "sim.engine",
    "sim.resources.self_s": "sim.resources",
    "soc.build.self_s": "soc.build",
    "soc.cache.self_s": "soc.cache",
    "soc.datapath.self_s": "soc.datapath",
    "soc.noc.self_s": "soc.noc",
    "soc.dram.self_s": "soc.dram",
    "runtime.api.self_s": "runtime.api",
    "runtime.executor.self_s": "runtime.executor",
    "core.agent.self_s": "core.agent",
    "experiments.sweep.wait_s": "experiments.sweep.backend",
    "experiments.sweep.cache_get_s": "experiments.sweep.cache_get",
    "experiments.sweep.cache_put_s": "experiments.sweep.cache_put",
    "experiments.sweep.manifest_s": "experiments.sweep.manifest",
    "net.dispatch_self_s": "net.dispatch",
    "serving.decide_self_s": "serving.decide",
    "core.qtable.best_modes_self_s": "core.qtable.best_modes",
}


#: The spans coverage counts as layers: every span with a self-time
#: metric.  Not the benchmark's roots, and not ``experiments.sweep.run``,
#: which only carries the sweep's counters and encloses a whole
#: comparison or pass, so its self time is code no layer span wraps.
LAYER_SPANS = tuple(_SELF_TIMES.values())


def per_layer_metrics(profile: Profile, extras: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from a run's profile plus ``extras``.

    A metric of a layer the run never reached is absent; ``run.py``
    reports it as 0.
    """
    metrics = {name: float(value) for name, value in profile.counters.items()}
    for name, span in _SELF_TIMES.items():
        metrics[name] = profile.self_s.get(span, 0.0)
    events = metrics.get("sim.engine.events", 0.0)
    if events:
        metrics["sim.engine.host_us_per_event"] = metrics["sim.engine.self_s"] / events * 1e6
    lines = metrics.get("soc.cache.hits", 0.0) + metrics.get("soc.cache.misses", 0.0)
    if lines:
        metrics["soc.cache.hit_ratio"] = metrics["soc.cache.hits"] / lines
    metrics.update(extras)
    return metrics
