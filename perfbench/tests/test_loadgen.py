"""The open-loop schedule and the rule that decides whether a rate step passed."""

from loadgen import BATCH_SIZE, build_schedule, step_passes


def test_schedule_is_a_function_of_the_seed():
    first = build_schedule(7, 1000.0, 500, 243)
    assert first == build_schedule(7, 1000.0, 500, 243)
    assert first != build_schedule(8, 1000.0, 500, 243)


def test_schedule_is_poisson_at_the_offered_rate_with_one_batch_in_eight():
    offsets, states = build_schedule(3, 2000.0, 8000, 243)
    assert offsets == sorted(offsets)
    assert abs(len(offsets) / offsets[-1] - 2000.0) < 100.0
    batches = sum(1 for request in states if len(request) == BATCH_SIZE)
    assert sum(1 for request in states if len(request) not in (1, BATCH_SIZE)) == 0
    assert abs(batches / len(states) - 1 / 8) < 0.02
    assert all(0 <= state < 243 for request in states for state in request)


def _step(latencies, status=None, outstanding=0):
    return {
        "latency_s": latencies,
        "status": status or [200] * len(latencies),
        "outstanding_at_last_due": outstanding,
    }


def test_step_passes_on_p99_within_the_limit():
    latencies = [0.001] * 99 + [0.010]
    assert step_passes(_step(latencies), 1000.0, 0.005)
    assert not step_passes(_step([0.001] * 98 + [0.010] * 2), 1000.0, 0.005)


def test_failed_request_misses_the_limit():
    latencies = [0.001] * 99 + [float("inf")]
    status = [200] * 99 + [0]
    assert not step_passes(_step(latencies, status), 1000.0, 0.005)


def test_growing_backlog_fails_the_step():
    latencies = [0.001] * 100
    assert step_passes(_step(latencies, outstanding=5), 1000.0, 0.005)
    assert not step_passes(_step(latencies, outstanding=6), 1000.0, 0.005)
