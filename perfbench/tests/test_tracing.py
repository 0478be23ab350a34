"""Tracing wrappers: originals restored, spans nested, self time computed."""

import asyncio

import numpy as np
import pytest

from tracing import RECORD, Site, Tracer, install, profile, read_chunks, self_times

NAMES = ("root", "outer", "inner", "gen", "coro")


class Subject:
    def outer(self, value):
        return self.inner(value) + 1

    def inner(self, value):
        return value * 2

    def gen(self, count):
        total = 0
        for index in range(count):
            total += yield index
        return total

    async def coro(self, value):
        return value + 1


def _records(tracer):
    return np.frombuffer(tracer.spans.tobytes(), dtype=np.float64).reshape(-1, RECORD)


def _sites(after=None):
    return [
        Site(Subject, "outer", "outer", after=after),
        Site(Subject, "inner", "inner"),
        Site(Subject, "gen", "gen", shape="generator"),
        Site(Subject, "coro", "coro", shape="coroutine"),
    ]


def test_restore_puts_every_original_back():
    originals = {name: vars(Subject)[name] for name in ("outer", "inner", "gen", "coro")}
    installation = install(Tracer(NAMES, "t"), _sites())
    assert all(vars(Subject)[name] is not original for name, original in originals.items())
    installation.restore()
    assert all(vars(Subject)[name] is original for name, original in originals.items())


def test_failed_install_restores_what_it_had_wrapped():
    original = vars(Subject)["outer"]
    sites = [Site(Subject, "outer", "outer"), Site(Subject, "missing", "inner")]
    with pytest.raises(KeyError):
        install(Tracer(NAMES, "t"), sites)
    assert vars(Subject)["outer"] is original


def test_wrapped_calls_keep_results_and_nest_spans():
    tracer = Tracer(NAMES, "t")
    calls = []
    installation = install(tracer, _sites(after=lambda t, args, result, token: calls.append(result)))
    try:
        assert Subject().outer(3) == 7
    finally:
        installation.restore()
    assert calls == [7]
    records = _records(tracer)
    assert [NAMES[int(name)] for name in records[:, 0]] == ["outer", "inner"]
    assert list(records[:, 1]) == [-1, 0]
    assert tracer.stack == []


def test_generator_gets_one_span_per_resume_and_keeps_its_protocol():
    tracer = Tracer(NAMES, "t")
    installation = install(tracer, _sites())
    try:
        generator = Subject().gen(3)
        assert next(generator) == 0
        assert generator.send(10) == 1
        assert generator.send(20) == 2
        with pytest.raises(StopIteration) as stop:
            generator.send(30)
    finally:
        installation.restore()
    assert stop.value.value == 60
    assert len(_records(tracer)) == 4


def test_coroutine_span_closes_after_the_await():
    tracer = Tracer(NAMES, "t")
    installation = install(tracer, _sites())
    try:
        assert asyncio.run(Subject().coro(1)) == 2
    finally:
        installation.restore()
    records = _records(tracer)
    assert len(records) == 1 and records[0, 3] >= records[0, 2] > 0


def test_self_time_is_span_minus_time_its_children_cover():
    # root [0, 10] has children [1, 3] and [4, 8]; [4, 8] has child [5, 6].
    records = np.array(
        [
            [0, -1, 0.0, 10.0],
            [1, 0, 1.0, 3.0],
            [1, 0, 4.0, 8.0],
            [2, 2, 5.0, 6.0],
        ]
    )
    duration, own = self_times(records)
    assert list(duration) == [10.0, 2.0, 4.0, 1.0]
    assert list(own) == [4.0, 2.0, 3.0, 1.0]


def test_profile_sums_self_time_counters_and_coverage(tmp_path):
    tracer = Tracer(NAMES, "run-1")
    tracer.spans.extend([0, -1, 0.0, 10.0, 1, 0, 1.0, 3.0, 1, 0, 4.0, 8.0, 2, 2, 5.0, 6.0])
    tracer.count("work", 5)
    path = str(tmp_path / "trace.jsonl")
    tracer.write(path)
    tracer.write(path)
    chunks = read_chunks(path)
    assert [chunk["run_id"] for chunk in chunks] == ["run-1", "run-1"]
    result = profile(chunks, roots=("root",), layer_names=("outer", "inner"))
    assert result.self_s == {"root": 8.0, "outer": 10.0, "inner": 2.0}
    assert result.total_s == {"root": 20.0, "outer": 12.0, "inner": 2.0}
    assert result.counters == {"work": 10}
    assert result.coverage("root") == pytest.approx(0.6)


def test_coverage_counts_only_layer_self_time_inside_roots():
    # "outer" encloses almost all of the root but is not a layer: only the
    # self time of the layer "inner" inside the root counts, not the
    # "inner" span after the root ends.
    tracer = Tracer(NAMES, "run-1")
    tracer.spans.extend([0, -1, 0.0, 10.0, 1, 0, 0.5, 9.5, 2, 1, 5.0, 6.0, 2, -1, 11.0, 15.0])
    chunk = {"names": list(NAMES), "counters": {}, "records": np.asarray(tracer.spans)}
    assert profile([chunk], roots=("root",), layer_names=("inner",)).coverage("root") == pytest.approx(0.1)
    assert profile([chunk], roots=("root",), layer_names=("outer", "inner")).coverage("root") == pytest.approx(0.9)
