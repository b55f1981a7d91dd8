"""Load generators: an open loop on a schedule and closed loops of callers.

An open loop sends each request when it is due, whether or not earlier
ones have finished, as independent users do; its latency is timed from the
*due* time, so a stall in the system (or in the generator) is charged to
every request it delays, and how late the generator itself ran is recorded.
A closed loop sends a caller's next request only after its previous one
completes, so a slow system receives less load.

Clocks and sleeps are injectable so the scheduling arithmetic is tested on
a fake clock.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Outcome:
    """One request: when it was due, sent and finished, and whether it failed."""

    index: int
    due: float
    sent: float = 0.0
    finished: float = 0.0
    error: str | None = None
    result: object = None

    @property
    def latency(self) -> float:
        """Seconds from due time to completion (the open-loop latency)."""
        return self.finished - self.due

    @property
    def late(self) -> float:
        """Seconds the generator sent this request after it was due."""
        return self.sent - self.due


def poisson_gaps(rng: np.random.Generator, rate: float, count: int) -> list[float]:
    """Exponential inter-arrival gaps of a Poisson process at ``rate`` per second."""
    return [float(g) for g in rng.exponential(1.0 / rate, size=count)]


@dataclass
class OpenLoop:
    """Send one request per due time; a second thread collects completions.

    ``submit(index)`` must not block on the request's completion; it
    returns a handle that ``wait(handle)`` blocks on.  A submit that raises
    marks the request failed at once.
    """

    gaps: list[float]
    clock: object = time.perf_counter
    sleep: object = time.sleep
    outcomes: list[Outcome] = field(default_factory=list)

    def run(self, submit, wait) -> list[Outcome]:
        handoff: queue.Queue = queue.Queue()
        waiter = threading.Thread(target=self._collect, args=(handoff, wait),
                                  name="bench-open-loop-waiter", daemon=True)
        waiter.start()
        try:
            self.schedule(submit, handoff.put)
        finally:
            handoff.put(None)
            waiter.join()
        return self.outcomes

    def schedule(self, submit, handoff) -> None:
        """Send on schedule (the generator thread's half of :meth:`run`)."""
        due = self.clock()
        for index, gap in enumerate(self.gaps):
            due += gap
            now = self.clock()
            if now < due:
                self.sleep(due - now)
            outcome = Outcome(index=index, due=due, sent=self.clock())
            self.outcomes.append(outcome)
            try:
                handle = submit(index)
            except Exception as exc:  # noqa: BLE001 — a refused request is a result
                outcome.finished = self.clock()
                outcome.error = type(exc).__name__
                continue
            handoff((outcome, handle))

    def _collect(self, handoff: queue.Queue, wait) -> None:
        while (item := handoff.get()) is not None:
            self.complete(*item, wait)

    def complete(self, outcome: Outcome, handle, wait) -> None:
        try:
            outcome.result = wait(handle)
        except Exception as exc:  # noqa: BLE001
            outcome.error = type(exc).__name__
        outcome.finished = self.clock()


def closed_loop(call, deadline: float, threads: int, clock=time.perf_counter) -> list[Outcome]:
    """``threads`` callers each run ``call(index)`` back to back until ``deadline``."""
    outcomes: list[Outcome] = []
    lock = threading.Lock()
    counter = iter(range(1 << 62))

    def caller(slot: int) -> None:
        while clock() < deadline:
            with lock:
                index = next(counter)
            outcome = Outcome(index=index, due=clock())
            outcome.sent = outcome.due
            try:
                outcome.result = call(slot, index)
            except Exception as exc:  # noqa: BLE001
                outcome.error = type(exc).__name__
            outcome.finished = clock()
            with lock:
                outcomes.append(outcome)

    workers = [threading.Thread(target=caller, args=(slot,), name=f"bench-caller-{slot}")
               for slot in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return sorted(outcomes, key=lambda o: o.index)


def outstanding_loop(submit, wait, deadline: float, depth: int,
                     clock=time.perf_counter) -> list[Outcome]:
    """One thread keeps ``depth`` requests outstanding until ``deadline``.

    Requests are retired oldest first; each retirement submits a new one
    while the deadline has not passed.
    """
    outcomes: list[Outcome] = []
    inflight: list[tuple[Outcome, object]] = []
    index = 0

    def send() -> None:
        nonlocal index
        outcome = Outcome(index=index, due=clock())
        outcome.sent = outcome.due
        index += 1
        outcomes.append(outcome)
        try:
            inflight.append((outcome, submit(outcome.index)))
        except Exception as exc:  # noqa: BLE001
            outcome.error = type(exc).__name__
            outcome.finished = clock()

    for _ in range(depth):
        send()
    while inflight:
        outcome, handle = inflight.pop(0)
        try:
            outcome.result = wait(handle)
        except Exception as exc:  # noqa: BLE001
            outcome.error = type(exc).__name__
        outcome.finished = clock()
        if clock() < deadline:
            send()
    return outcomes
