"""Differential tests: the fast core is bit-identical to its references.

The engine and cache tests run the same experiment under
``REPRO_CORE_BACKEND=reference`` and ``=vectorized`` (via
``tests/differential.py``); the Q-table tests run ``QTable`` beside the
numpy oracle in ``tests/qtable_oracle.py``.  Either way the observable
results must be *equal* — Q-tables entry-for-entry, serialisation-for-
serialisation and verdict-for-verdict on corrupt payloads, engine
schedules event-for-event, cache contents in recency order, scenario
sweeps payload-digest-for-payload-digest, and perf benchmarks
checksum-for-checksum.  Randomised inputs come from hypothesis (episode
schedules, serialised payloads, engine plans, cache op sequences) and
from the procedural scenario generator, so the contract is exercised far
outside the committed grids.
"""

from __future__ import annotations

import copy
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from differential import (
    assert_backends_agree,
    cache_state,
    payload_digest,
    run_on_backends,
)
from qtable_oracle import NumpyQTable
from repro.core.agent import AgentConfig, QLearningAgent
from repro.core.qtable import QTable
from repro.core.state import NUM_STATES
from repro.experiments.socs import run_soc_comparison
from repro.experiments.sweep import ResultCache, SweepRunner
from repro.perf.bench import run_benchmark
from repro.scenarios.generate import (
    GenerationSpec,
    TopologySpec,
    WorkloadSpec,
    generate_scenario,
)
from repro.scenarios.run import run_scenario
from repro.sim.engine import Engine, ResumeAt
from repro.soc.cache import SetAssociativeCache
from repro.soc.coherence import COHERENCE_MODES
from repro.utils.backend import CORE_BACKENDS
from repro.utils.rng import SeededRNG

# ----------------------------------------------------------------------
# Q-table / agent episodes, against the numpy oracle
# ----------------------------------------------------------------------

#: One TD update: (state, mode index, reward, alpha).
update_strategy = st.tuples(
    st.integers(min_value=0, max_value=NUM_STATES - 1),
    st.integers(min_value=0, max_value=len(COHERENCE_MODES) - 1),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False),
)

episode_strategy = st.lists(update_strategy, min_size=1, max_size=120)

#: The shipping table and its numpy oracle, compared side by side.
TABLE_CLASSES = (QTable, NumpyQTable)


def _train_table(episode, table_cls=QTable):
    """Apply an update episode to a fresh table; return its serialisation."""
    table = table_cls()
    for state, mode_idx, reward, alpha in episode:
        table.update(state, COHERENCE_MODES[mode_idx], reward, alpha)
    return table.to_dict()


def assert_tables_agree(fn):
    """Run ``fn(table_cls)`` for the table and the oracle; assert equal results.

    Results are compared by ``repr``, which tells ``-0.0`` from ``0.0``
    and ``1`` from ``1.0`` where ``==`` would not.
    """
    results = [fn(table_cls) for table_cls in TABLE_CLASSES]
    assert repr(results[0]) == repr(results[1]), "QTable diverged from the numpy oracle"
    return results[0]


#: Scalars a hand-edited or corrupt payload may hold where a number belongs.
ODD_SCALARS = (
    None, float("nan"), float("inf"), float("-inf"), "abc", "", "1_0", " 2.5 ",
    "nan", "1e999", {}, [], 2**63, 2**64 - 1, 2**64, 2**70, -(2**63),
    -(2**63) - 1, 10**400,
)

clean_values = st.floats(allow_nan=False, allow_infinity=False)
clean_counts = st.integers(min_value=0, max_value=50)

#: Kinds of element a ``values`` matrix may hold, valid or not.
value_kinds = (
    clean_values,
    st.integers(min_value=-5, max_value=5),
    st.booleans(),
    st.floats().map(repr),
    st.sampled_from(ODD_SCALARS),
)

#: Kinds of element an ``updates`` matrix may hold, valid or not.
count_kinds = (
    clean_counts,
    st.integers(min_value=-3, max_value=-1),
    st.floats(min_value=-4.0, max_value=4.0).map(lambda x: round(x * 2) / 2),
    st.sampled_from((1e18, 1e30, 2.0**63, -(2.0**63), -1e19, float("nan"), float("inf"))),
    st.integers(min_value=2**62, max_value=2**65),
    st.booleans(),
    st.integers(min_value=0, max_value=9).map(str),
    st.sampled_from(ODD_SCALARS),
)


def _exact(rows, leaves):
    return st.lists(st.lists(leaves, min_size=4, max_size=4), min_size=rows, max_size=rows)


def _matrices(rows, kinds):
    """``rows`` x 4 matrices of one kind or mixed kinds; misshapen, ragged, nested."""
    mixed = st.one_of(*kinds)
    return st.one_of(
        st.sampled_from(kinds).flatmap(lambda leaves: _exact(rows, leaves)),
        _exact(rows, mixed),
        st.lists(st.one_of(st.lists(mixed, min_size=3, max_size=5), mixed), max_size=4),
        st.recursive(mixed, lambda children: st.lists(children, max_size=4), max_leaves=10),
    )


@st.composite
def serialised_payloads(draw):
    """A ``QTable.to_dict``-shaped payload, clean or with one field corrupted."""
    rows = draw(st.integers(min_value=1, max_value=3))
    payload = {
        "num_states": rows,
        "values": draw(_exact(rows, clean_values)),
        "updates": draw(_exact(rows, clean_counts)),
    }
    corrupt = draw(st.sampled_from(("nothing", "missing", "num_states", "values", "updates")))
    if corrupt == "missing":
        del payload[draw(st.sampled_from(sorted(payload)))]
    elif corrupt == "num_states":
        payload["num_states"] = draw(
            st.one_of(
                st.integers(min_value=-1, max_value=4),
                st.booleans(),
                st.sampled_from(
                    (str(rows), f" {rows} ", "2.5", "many", None, rows + 0.7,
                     float("nan"), float("inf"), [], {})
                ),
            )
        )
    elif corrupt == "values":
        payload["values"] = draw(_matrices(rows, value_kinds))
    elif corrupt == "updates":
        payload["updates"] = draw(_matrices(rows, count_kinds))
    return payload


def _nested(depth):
    """A scalar wrapped in ``depth`` single-item lists."""
    item = 1.0
    for _ in range(depth):
        item = [item]
    return item


def _from_dict_outcome(table_cls, payload):
    """What ``table_cls.from_dict(payload)`` does: the table it restores, or its error."""
    try:
        with warnings.catch_warnings():
            # The oracle's int64 casts of out-of-range counts warn.
            warnings.simplefilter("ignore", RuntimeWarning)
            table = table_cls.from_dict(copy.deepcopy(payload))
    except Exception as exc:  # noqa: BLE001 - the error itself is the outcome
        return ("rejected", type(exc).__name__, str(exc))
    return ("accepted", repr(table.to_dict()), table.visited_states())


class TestQTableDifferential:
    """Training episodes produce identical tables in ``QTable`` and the oracle."""

    @given(episode=episode_strategy)
    @settings(max_examples=60, deadline=None)
    def test_update_episode_serialises_identically(self, episode):
        assert_tables_agree(lambda table_cls: _train_table(episode, table_cls))

    @given(episode=episode_strategy)
    @settings(max_examples=60, deadline=None)
    def test_batched_updates_match_per_step(self, episode):
        # update_batch replays the exact per-step recurrence in arrival
        # order — a reordered or algebraically folded batch would change
        # float rounding and fail.
        def batched_equals_stepped(table_cls):
            stepped = _train_table(episode, table_cls)
            table = table_cls()
            table.update_batch(
                [state for state, _, _, _ in episode],
                [COHERENCE_MODES[mode_idx] for _, mode_idx, _, _ in episode],
                [reward for _, _, reward, _ in episode],
                [alpha for _, _, _, alpha in episode],
            )
            assert table.to_dict() == stepped
            return stepped

        assert_tables_agree(batched_equals_stepped)

    @given(episode=episode_strategy)
    @settings(max_examples=60, deadline=None)
    def test_greedy_decisions_and_tie_draws_agree(self, episode):
        # The tie rule consumes RNG draws, so agreement must cover both the
        # chosen modes and the exact post-decision RNG state.
        def decide_everywhere(table_cls):
            table = table_cls.from_dict(_train_table(episode, table_cls))
            rng = SeededRNG(11)
            choices = [table.best_mode(state, rng=rng).label for state in range(NUM_STATES)]
            subset = COHERENCE_MODES[1:3]
            restricted = [
                table.best_mode(state, allowed=subset, rng=rng).label
                for state in range(NUM_STATES)
            ]
            batch = [mode.label for mode in table.best_modes(list(range(NUM_STATES)))]
            deterministic = [table.best_mode(state).label for state in range(NUM_STATES)]
            assert batch == deterministic
            return {
                "choices": choices,
                "restricted": restricted,
                "batch": batch,
                "rng": rng.export_state(),
                "values": table.values.tolist(),
                "counts": table.update_counts().tolist(),
                "visited": table.visited_states(),
            }

        assert_tables_agree(decide_everywhere)

    @given(
        episode=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=NUM_STATES - 1),
                st.floats(
                    min_value=-10.0, max_value=10.0,
                    allow_nan=False, allow_infinity=False,
                ),
            ),
            min_size=1,
            max_size=80,
        ),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_agent_episode_with_exploration_agrees(self, episode, seed):
        # Full epsilon-greedy loop: exploration draws, tie draws, decayed
        # updates — the exact path CohmeleonPolicy drives in a simulation.
        def run_agent(table_cls):
            agent = QLearningAgent(AgentConfig(), rng=SeededRNG(seed), qtable=table_cls())
            total = len(episode)
            for step, (state, reward) in enumerate(episode):
                agent.set_training_progress(step / total)
                mode = agent.select_action(state)
                agent.update(state, mode, reward)
            return payload_digest(
                {
                    "table": agent.qtable.to_dict(),
                    "summary": agent.summary(),
                    "rng": agent.rng.export_state(),
                }
            )

        assert_tables_agree(run_agent)

    @given(payload=serialised_payloads())
    @settings(max_examples=500, deadline=None)
    @example(payload={"num_states": 1, "values": _nested(70), "updates": [[0] * 4]})
    @example(payload={"num_states": 1, "values": [[0.5] * 4], "updates": [[2**63, 0, 0, 0]]})
    @example(payload={"num_states": 1, "values": [[0.5] * 4], "updates": [[-(2**63), 0, 0, 1.0]]})
    @example(payload={"num_states": 1, "values": [["1_0", " 2 ", True, 3]], "updates": [[True, 2, 0, 1]]})
    @example(payload={"num_states": 1, "values": [[1.0] * 4], "updates": [[2**60 + 1, 0.0, 0, 0]]})
    @example(payload={"num_states": 1, "values": [[1.0] * 4], "updates": [[-1, 0, 0, 0]]})
    @example(payload={"num_states": 1, "values": [[1.0] * 4], "updates": [[True, False, True, True]]})
    @example(payload={"num_states": 1, "values": [[1.0] * 4], "updates": [[1e30, 0.0, 0, 0]]})
    @example(payload={"num_states": 2, "values": [[1.0] * 4, [1.0] * 3], "updates": [[0] * 4] * 2})
    @example(payload={"num_states": 2, "values": [[1.0] * 4] * 2, "updates": [[0] * 4, [[0]] * 4]})
    @example(payload={"num_states": 1, "values": [[1.0] * 4], "updates": [[float("inf"), 0, 0, 0]]})
    def test_from_dict_corpus_agrees(self, payload):
        # Serialised payloads well inside and far outside the format: both
        # from_dicts must accept or reject alike, with the same message,
        # and restore the same table.
        assert _from_dict_outcome(QTable, payload) == _from_dict_outcome(NumpyQTable, payload)


# ----------------------------------------------------------------------
# Engine schedules
# ----------------------------------------------------------------------

#: One process step: ("delay", d) yields a relative delay, ("at", d) an
#: absolute ResumeAt d cycles past the process's current time (the same
#: scripted-process idiom as tests/test_engine.py).
step_strategy = st.tuples(
    st.sampled_from(["delay", "at"]),
    st.integers(min_value=0, max_value=40),
)

plans_strategy = st.lists(
    st.lists(step_strategy, min_size=1, max_size=6), min_size=1, max_size=6
)


def _scripted_process(log, tag, steps):
    """Replay ``steps``, logging ``(tag, resume time)`` after each yield."""
    now = 0.0
    for kind, value in steps:
        if kind == "delay":
            now = yield value
        else:
            now = yield ResumeAt(now + value)
        log.append((tag, now))


def _run_plans(plans, cuts=()):
    """Run scripted plans (optionally chunked at ``cuts``); return the trace."""
    engine = Engine()
    log = []
    for index, steps in enumerate(plans):
        engine.spawn(f"p{index}", _scripted_process(log, f"p{index}", steps))
    for cut in sorted(cuts):
        engine.run(until=cut)
    engine.run()
    return {
        "log": log,
        "now": engine.now,
        "events": engine.events_processed,
        "finished": engine.all_finished(),
    }


class TestEngineDifferential:
    """The cohort loop replays the reference loop's schedule exactly."""

    @given(plans=plans_strategy)
    @settings(max_examples=60, deadline=None)
    def test_plans_replay_identically(self, plans):
        assert_backends_agree(lambda: _run_plans(plans))

    @given(
        plans=plans_strategy,
        cuts=st.lists(st.integers(min_value=0, max_value=250), max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_chunked_runs_replay_identically(self, plans, cuts):
        # run(until=) pushes the first too-late event back with its original
        # sequence number; the cohort loop must preserve that tie-order
        # contract across pauses exactly like the reference loop.
        assert_backends_agree(lambda: _run_plans(plans, cuts))

    def test_zero_delay_rearms_join_the_live_cohort_in_order(self):
        # Processes that re-arm with `yield 0` stay at the current
        # timestamp: the cohort loop must execute them (in spawn order)
        # within the same drain, exactly as the reference pop-loop does.
        def run():
            engine = Engine()
            log = []

            def bouncer(tag, bounces):
                for bounce in range(bounces):
                    log.append((tag, bounce, engine.now))
                    yield 0
                yield 7
                log.append((tag, "done", engine.now))

            engine.spawn("a", bouncer("a", 3))
            engine.spawn("b", bouncer("b", 2))
            engine.run()
            return {"log": log, "events": engine.events_processed, "now": engine.now}

        result = assert_backends_agree(run)
        assert result["now"] == 7.0


# ----------------------------------------------------------------------
# Cache op sequences
# ----------------------------------------------------------------------

_LINE = 64
_SPAN = 256 * _LINE  # address window the ops draw from (thrashes 2-way sets)

_addr = st.integers(min_value=0, max_value=_SPAN)
_nbytes = st.integers(min_value=1, max_value=24 * _LINE)

cache_op_strategy = st.one_of(
    st.tuples(st.just("access_range"), _addr, _nbytes, st.booleans(), st.booleans()),
    st.tuples(st.just("access_line_run"), _addr, _nbytes, st.booleans()),
    st.tuples(
        st.just("access_lines"),
        st.lists(
            _addr.map(lambda a: (a // _LINE) * _LINE), min_size=1, max_size=12
        ),
        st.booleans(),
    ),
    st.tuples(st.just("install_range"), _addr, _nbytes, st.booleans()),
    st.tuples(st.just("access_line"), _addr, st.booleans(), st.booleans()),
    st.tuples(st.just("flush_range"), _addr, _nbytes),
    st.tuples(st.just("invalidate_line"), _addr),
    st.tuples(st.just("flush_all")),
)


def _apply_cache_ops(ops):
    """Apply an op sequence to a small cache; return results + final state."""
    cache = SetAssociativeCache("diff", size_bytes=8 * 1024, line_bytes=_LINE, ways=2)
    outcomes = []
    for op in ops:
        kind = op[0]
        if kind == "access_range":
            result = cache.access_range(op[1], op[2], write=op[3], allocate=op[4])
            outcomes.append(
                (result.lines, result.hits, result.misses,
                 tuple(result.evicted_dirty), result.evicted_clean)
            )
        elif kind == "access_line_run":
            hits, misses, miss_lines, evicted_dirty = cache.access_line_run(
                op[1], op[2], write=op[3]
            )
            outcomes.append((hits, misses, tuple(miss_lines), tuple(evicted_dirty)))
        elif kind == "access_lines":
            outcomes.append(cache.access_lines(op[1], write=op[2]))
        elif kind == "install_range":
            outcomes.append(cache.install_range(op[1], op[2], dirty=op[3]))
        elif kind == "access_line":
            outcomes.append(cache.access_line(op[1], write=op[2], allocate=op[3]))
        elif kind == "flush_range":
            outcomes.append(cache.flush_range(op[1], op[2]))
        elif kind == "invalidate_line":
            outcomes.append(cache.invalidate_line(op[1]))
        else:
            outcomes.append(cache.flush_all())
    return {"outcomes": outcomes, "state": cache_state(cache)}


class TestCacheDifferential:
    """Cache walks agree on results, statistics, and eviction order."""

    @given(ops=st.lists(cache_op_strategy, min_size=1, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_op_sequences_agree(self, ops):
        assert_backends_agree(lambda: _apply_cache_ops(ops))

    def test_eviction_order_is_lru_in_walk_order(self):
        # Deterministic spot check: overfilling one set evicts the oldest
        # lines first, in walk order, on both backends.
        def run():
            cache = SetAssociativeCache("lru", 4 * _LINE, _LINE, ways=2)
            assert cache.num_sets == 2
            # Lines 0,2,4,6 map to set 0; fill, then overflow twice.
            for addr in (0, 2 * _LINE):
                cache.access_line(addr, write=True)
            result = cache.access_range(4 * _LINE, 4 * _LINE, write=False)
            return (tuple(result.evicted_dirty), result.evicted_clean,
                    cache_state(cache))

        evicted_dirty, _evicted_clean, _state = assert_backends_agree(run)
        assert evicted_dirty == (0, 2 * _LINE)


# ----------------------------------------------------------------------
# Generated scenarios and figure grids (end-to-end payload digests)
# ----------------------------------------------------------------------

def _generated_scenario(seed, tiles=(2, 2), phases=(1, 1)):
    """A milliseconds-fast generated scenario (PR 6 procedural generator)."""
    spec = GenerationSpec(
        name_prefix="diff",
        seed=seed,
        topology=TopologySpec(tiles=tiles, cpus=(1, 1), mem_tiles=(1, 1)),
        workload=WorkloadSpec(
            phases=phases, threads=(1, 2), chain=(1, 1), loops=(1, 1)
        ),
        training_iterations=1,
    )
    return generate_scenario(spec).scenario()


def _scenario_payload(scenario, runner=None):
    """Run a scenario and return its JSON payloads, keyed by policy."""
    result = run_scenario(
        scenario, policy_kinds=["fixed-non-coh-dma", "cohmeleon"], runner=runner
    )
    return {kind: ev.to_dict() for kind, ev in result.evaluations.items()}


class TestScenarioDifferential:
    """Generated-scenario sweeps are payload-digest-equal across backends."""

    @pytest.mark.parametrize("seed", [3, 17, 2026])
    def test_generated_scenario_digests_agree(self, seed):
        assert_backends_agree(
            lambda: _scenario_payload(_generated_scenario(seed)), digest=True
        )

    def test_core_and_execution_backends_commute(self, tmp_path):
        # The core backend must be invariant across sweep execution
        # backends too: serial and 2-worker thread runs, under each core
        # backend, all produce one payload digest.
        scenario = _generated_scenario(99)
        digests = set()
        for core in CORE_BACKENDS:
            serial = run_on_backends(lambda: _scenario_payload(scenario))[core]
            runner = SweepRunner(
                workers=2,
                backend="thread",
                cache=ResultCache(tmp_path / f"cache-{core}"),
            )
            threaded = run_on_backends(
                lambda: _scenario_payload(scenario, runner=runner)
            )[core]
            digests.add(payload_digest(serial))
            digests.add(payload_digest(threaded))
        assert len(digests) == 1

    @pytest.mark.slow
    def test_process_execution_backend_agrees(self, tmp_path):
        # Worker processes inherit REPRO_CORE_BACKEND from the environment
        # set by core_backend(); the digests must not move.
        scenario = _generated_scenario(7)

        def run_with_processes():
            runner = SweepRunner(workers=2, backend="process")
            return _scenario_payload(scenario, runner=runner)

        serial_digest = payload_digest(
            assert_backends_agree(lambda: _scenario_payload(scenario), digest=True)
        )
        process_digest = payload_digest(
            assert_backends_agree(run_with_processes, digest=True)
        )
        assert serial_digest == process_digest

    @pytest.mark.slow
    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=8, deadline=None)
    def test_random_generated_scenarios_agree(self, seed):
        # The nightly fleet: arbitrary generated scenarios, not just the
        # committed ones.
        assert_backends_agree(
            lambda: _scenario_payload(_generated_scenario(seed)), digest=True
        )


class TestFigureGridDifferential:
    """The quick figure grids and perf benchmarks agree across backends."""

    @pytest.mark.parametrize("name", ["engine_events", "qlearning_step"])
    def test_quick_benchmarks_checksum_agree(self, name):
        results = run_on_backends(lambda: run_benchmark(name, quick=True))
        work = {backend: result.work for backend, result in results.items()}
        checksums = {backend: result.checksum for backend, result in results.items()}
        assert len(set(work.values())) == 1, work
        assert len(set(checksums.values())) == 1, checksums

    @pytest.mark.slow
    def test_fig9_quick_grid_agrees(self):
        # The acceptance benchmark: a reduced Figure 9 sweep, end-to-end
        # through executor, datapath, caches, engine, and the Q-learning
        # policy, must be payload-digest-equal across backends.
        def run_grid():
            comparison = run_soc_comparison(
                labels=["SoC1", "SoC6"],
                policy_kinds=["fixed-non-coh-dma", "fixed-coh-dma", "cohmeleon"],
                training_iterations=1,
            )
            return {
                label: {kind: ev.to_dict() for kind, ev in by_kind.items()}
                for label, by_kind in comparison.evaluations.items()
            }

        assert_backends_agree(run_grid, digest=True)
