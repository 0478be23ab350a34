import os
import time

import pytest

from hostspeed import REFERENCE_PROBE_S, SpeedMonitor, host_cpus, pinned, probe


def monitor_with(samples):
    monitor = SpeedMonitor([])
    monitor.samples = samples
    return monitor


def test_reference_seconds_scale_by_mean_relative_speed_inside_the_interval():
    slow, fast = REFERENCE_PROBE_S * 2, REFERENCE_PROBE_S
    monitor = monitor_with({0: [(0.5, fast), (1.5, slow), (2.5, fast), (3.5, slow), (9.0, slow)]})
    # Inside [0, 4]: speeds 1, 0.5, 1, 0.5; the sample at 9 s is outside.
    assert monitor.relative_speed(0.0, 4.0, [0]) == pytest.approx(0.75)
    assert monitor.reference_seconds(0.0, 4.0, [0]) == pytest.approx(3.0)


def test_relative_speed_averages_over_the_given_cpus_only():
    monitor = monitor_with({
        0: [(1.0, REFERENCE_PROBE_S)],
        1: [(1.0, REFERENCE_PROBE_S * 4)],
        2: [(1.0, REFERENCE_PROBE_S * 100)],
    })
    assert monitor.relative_speed(0.0, 2.0, [0, 1]) == pytest.approx((1.0 + 0.25) / 2)


def test_an_interval_without_samples_takes_the_sample_nearest_its_middle():
    monitor = monitor_with({0: [(0.0, REFERENCE_PROBE_S), (5.0, REFERENCE_PROBE_S * 2)]})
    assert monitor.relative_speed(3.0, 3.5, [0]) == pytest.approx(0.5)


def test_a_cpu_without_samples_is_an_error():
    monitor = monitor_with({0: [(5.0, REFERENCE_PROBE_S)]})
    with pytest.raises(RuntimeError):
        monitor.relative_speed(0.0, 1.0, [1])


def test_pinned_restores_the_affinity():
    before = os.sched_getaffinity(0)
    cpu = host_cpus()[-1]
    with pinned(cpu):
        assert os.sched_getaffinity(0) == {cpu}
    assert os.sched_getaffinity(0) == before


def test_monitor_samples_each_cpu_and_stops_its_samplers():
    cpu = host_cpus()[0]
    with SpeedMonitor([cpu]) as monitor:
        probe()
        processes = list(monitor._processes.values())
        time.sleep(0.2)
    assert all(process.poll() is not None for process in processes)
    assert len(monitor.samples[cpu]) >= 2
    assert all(seconds > 0 for _, seconds in monitor.samples[cpu])
