"""Open-loop load generator for the ``serving-decide`` workload.

Run as its own process::

    python perfbench/loadgen.py PLAN.json RESULT.json

``PLAN.json`` names the server address and a list of rate steps.  For
every step the generator builds its seeded Poisson schedule *before* the
step starts, then releases each request at its due time onto one of at
most two keep-alive connections, whatever the server is doing.  A request
due while both connections are busy waits in the generator's queue, and
that wait counts: latency runs from the time a request was due, not from
when it was sent, so a server stall shows in every request it delays.

The generator also records how late it noticed each due time (its *lag*).
A step in which the generator itself fell behind says nothing about the
server and is marked invalid by the caller.

Responses are stored as raw bytes during a step and decoded only after
it, so checking decisions costs the timed loop nothing.  Only the
standard library is used, so the generator's own cost stays small and
does not depend on the program under test.
"""

from __future__ import annotations

import gc
import json
import os
import random
import select
import socket
import sys
import time
from collections import deque
from typing import Dict, List, Sequence, Tuple

from stats import percentile

#: One request in eight carries a batch; the rest carry a single state.
BATCH_EVERY = 8
BATCH_SIZE = 64

#: Seconds a step may run past its last due time before unanswered
#: requests are counted as failed.
DRAIN_LIMIT_S = 10.0


def build_schedule(
    seed: int, rate: float, count: int, num_states: int
) -> Tuple[List[float], List[List[int]]]:
    """Seeded Poisson arrivals: ``(due offsets in seconds, states per request)``.

    Inter-arrival gaps are exponential with mean ``1 / rate``.  Request
    ``i`` carries a batch of :data:`BATCH_SIZE` states when the seeded
    draw picks it (one in :data:`BATCH_EVERY` on average) and one state
    otherwise.  The parent process calls this with the same arguments to
    know which states each request carried.
    """
    rng = random.Random(seed)
    offsets: List[float] = []
    states: List[List[int]] = []
    now = 0.0
    for _ in range(count):
        now += rng.expovariate(rate)
        offsets.append(now)
        size = BATCH_SIZE if rng.randrange(BATCH_EVERY) == 0 else 1
        states.append([rng.randrange(num_states) for _ in range(size)])
    return offsets, states


def encode_request(host: str, port: int, states: Sequence[int]) -> bytes:
    """The HTTP/1.1 bytes of one ``/v1/decide`` request."""
    if len(states) == 1:
        body = json.dumps({"state": states[0]}).encode("utf-8")
    else:
        body = json.dumps({"states": list(states)}).encode("utf-8")
    head = (
        f"POST /v1/decide HTTP/1.1\r\nHost: {host}:{port}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        "Connection: keep-alive\r\n\r\n"
    )
    return head.encode("latin-1") + body


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of process ``pid`` so far, from ``/proc``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # Fields 14 and 15 of stat(5), counted after the command name.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class _Connection:
    """One keep-alive connection with at most one request in flight."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""
        self.request = -1

    def send(self, index: int, payload: bytes) -> None:
        self.request = index
        self.buffer = b""
        self.sock.sendall(payload)

    def receive(self) -> "Tuple[int, bytes] | None":
        """Read what is available; return ``(status, body)`` once complete."""
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buffer += chunk
        head_end = self.buffer.find(b"\r\n\r\n")
        if head_end < 0:
            return None
        head = self.buffer[:head_end].decode("latin-1").split("\r\n")
        length = 0
        for line in head[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        body = self.buffer[head_end + 4:]
        if len(body) < length:
            return None
        return int(head[0].split(" ", 2)[1]), body[:length]

    def close(self) -> None:
        self.sock.close()


def run_step(
    connections: List[_Connection], offsets: Sequence[float], payloads: Sequence[bytes]
) -> Dict[str, object]:
    """Release every request on schedule and time it from its due time."""
    count = len(offsets)
    start = time.perf_counter() + 0.01
    due = [start + offset for offset in offsets]
    latency = [float("inf")] * count
    lag = [0.0] * count
    status = [0] * count
    bodies: List[bytes] = [b""] * count
    queue: deque = deque()
    idle = list(connections)
    busy: Dict[socket.socket, _Connection] = {}
    released = finished = 0
    outstanding_at_last_due = 0
    deadline = due[-1] + DRAIN_LIMIT_S
    while finished < count:
        now = time.perf_counter()
        if now > deadline:
            break
        while released < count and due[released] <= now:
            lag[released] = now - due[released]
            queue.append(released)
            released += 1
            if released == count:
                outstanding_at_last_due = count - finished
        while idle and queue:
            connection = idle.pop()
            index = queue.popleft()
            connection.send(index, payloads[index])
            busy[connection.sock] = connection
        if released < count:
            timeout = max(0.0, due[released] - time.perf_counter())
        else:
            timeout = deadline - time.perf_counter()
        if not busy:
            if timeout > 0:
                time.sleep(timeout)
            continue
        readable, _, _ = select.select(list(busy), [], [], max(timeout, 0.0))
        for sock in readable:
            connection = busy[sock]
            try:
                response = connection.receive()
            except (ConnectionError, OSError):
                # The request is lost: it keeps its infinite latency.
                finished += 1
                del busy[sock]
                connection.close()
                continue
            if response is None:
                continue
            index = connection.request
            latency[index] = time.perf_counter() - due[index]
            status[index], bodies[index] = response
            finished += 1
            del busy[sock]
            idle.append(connection)
    return {
        "latency_s": latency,
        "lag_s": lag,
        "status": status,
        "bodies": bodies,
        "outstanding_at_last_due": outstanding_at_last_due,
    }


def _decode(bodies: Sequence[bytes]) -> Tuple[List[List[str]], List[str]]:
    """Decisions and model digests from the raw response bodies."""
    decisions: List[List[str]] = []
    digests = set()
    for body in bodies:
        try:
            document = json.loads(body)
        except ValueError:
            decisions.append([])
            continue
        decisions.append([str(label) for label in document.get("decisions", [])])
        if "digest" in document:
            digests.add(str(document["digest"]))
    return decisions, sorted(digests)


def run_plan(plan: Dict[str, object]) -> Dict[str, object]:
    """Run the plan's fixed steps, then climb its rate ladder.

    The fixed steps (warm-up, reference rate) always run.  The ladder
    stops at the first rate that misses the limit twice in a row, so
    that one stall of a shared host does not end it.  A step in which
    the generator itself ran late is marked *invalid*.
    """
    host, port = str(plan["host"]), int(plan["port"])  # type: ignore[arg-type]
    limit_s = float(plan["limit_s"])  # type: ignore[arg-type]
    lag_limit_s = float(plan["lag_limit_s"])  # type: ignore[arg-type]
    num_states = int(plan["num_states"])  # type: ignore[arg-type]
    server_pid = int(plan["server_pid"])  # type: ignore[arg-type]
    connections = [_Connection(host, port) for _ in range(int(plan["connections"]))]  # type: ignore[arg-type]

    def run(name: str, rate: float, count: int, seed: int) -> Dict[str, object]:
        offsets, states = build_schedule(seed, rate, count, num_states)
        payloads = [encode_request(host, port, request) for request in states]
        # No collector pauses inside a step: they would show as lag.
        gc.collect()
        gc.disable()
        began = time.monotonic()
        cpu_before = cpu_seconds(server_pid)
        try:
            outcome = run_step(connections, offsets, payloads)
        finally:
            gc.enable()
        outcome["server_cpu_s"] = cpu_seconds(server_pid) - cpu_before
        # Monotonic bounds of the step, for rescaling the server's CPU time.
        outcome["interval"] = [began, time.monotonic()]
        decisions, digests = _decode(outcome.pop("bodies"))  # type: ignore[arg-type]
        outcome.update({
            "name": name, "rate": rate, "count": count, "seed": seed,
            "decisions": decisions, "digests": digests,
            "passed": step_passes(outcome, rate, limit_s),
            "valid": percentile(outcome["lag_s"], "99") <= lag_limit_s,  # type: ignore[arg-type]
        })
        # A connection the server dropped is replaced before the next step.
        connections[:] = [c for c in connections if c.sock.fileno() >= 0]
        while len(connections) < int(plan["connections"]):  # type: ignore[arg-type]
            connections.append(_Connection(host, port))
        return outcome

    results = []
    try:
        for step in plan["steps"]:  # type: ignore[union-attr]
            results.append(run(step["name"], float(step["rate"]), int(step["count"]), int(step["seed"])))
        ladder = plan["ladder"]
        for index, rate in enumerate(ladder["rates"]):  # type: ignore[index]
            seed = int(ladder["seed"]) + index  # type: ignore[index]
            outcome = run(f"ladder-{rate:g}", float(rate), int(ladder["count"]), seed)  # type: ignore[index]
            if not outcome["passed"]:
                results.append(outcome)
                outcome = run(f"ladder-{rate:g}-retry", float(rate), int(ladder["count"]), seed)  # type: ignore[index]
            results.append(outcome)
            if not outcome["passed"]:
                break
    finally:
        for connection in connections:
            connection.close()
    return {"steps": results}


def step_passes(outcome: Dict[str, object], rate: float, limit_s: float) -> bool:
    """Whether a step met the p99 limit with no failure and no growing backlog.

    A failed request has infinite latency, so it counts against the
    limit.  The backlog is growing when more requests were outstanding
    at the last due time than the server could finish within the limit
    at the offered rate (never fewer than one per connection).
    """
    latency = outcome["latency_s"]
    outstanding = int(outcome["outstanding_at_last_due"])  # type: ignore[arg-type]
    return (
        percentile(latency, "99") <= limit_s  # type: ignore[arg-type]
        and all(code == 200 for code in outcome["status"])  # type: ignore[union-attr]
        and outstanding <= max(2, rate * limit_s)
    )


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print("usage: loadgen.py PLAN.json RESULT.json", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        plan = json.load(handle)
    result = run_plan(plan)
    with open(argv[1], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
