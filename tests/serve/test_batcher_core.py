"""BatchCore: the batcher's policy on a hand-advanced clock, and every
interleaving of small serving scenarios checked against its invariants."""

from __future__ import annotations

import copy
import math

import pytest

from repro.errors import (
    BatchWorkerError,
    ForwardTimeoutError,
    RequestTimeoutError,
    ServeError,
)
from repro.serve.batcher import (
    ABANDONED,
    DONE,
    RUNNING,
    Batch,
    BatchCore,
    Fail,
    Wait,
)


class Req:
    """The fields the core reads and writes on a request."""

    def __init__(self, index: int, model: str = "a", deadline: float = math.inf):
        self.index = index
        self.model = model
        self.deadline = deadline
        self.state = "queued"
        self.result = None
        self.error = None

    def __repr__(self) -> str:
        return f"Req({self.index})"


def core_with(*requests, window=1.0, max_batch=8, forward_timeout=None):
    core = BatchCore(window, max_batch, forward_timeout)
    for request in requests:
        core.submit(request)
    return core


class TestPolicy:
    def test_lone_request_dispatches_at_once(self):
        lone = Req(0)
        core = core_with(lone)
        batch = core.next(now=10.0)
        assert isinstance(batch, Batch) and batch.requests == [lone]
        assert lone.state == RUNNING
        assert core.next(now=10.0) == Wait(math.inf)

    def test_company_opens_the_window(self):
        first, second, late = Req(0), Req(1), Req(2)
        core = core_with(first, second, window=0.005)
        assert core.next(now=1.0) == Wait(1.005)
        core.submit(late)
        assert core.next(now=1.002) == Wait(1.005)
        batch = core.next(now=1.005)
        assert batch.requests == [first, second, late]

    def test_max_batch_caps_the_batch(self):
        requests = [Req(index) for index in range(5)]
        core = core_with(*requests, max_batch=2)
        # A full batch does not wait out the window.
        assert core.next(now=0.0).requests == requests[:2]
        assert core.next(now=0.0).requests == requests[2:4]
        # The last one is alone in the queue: it goes at once.
        assert core.next(now=0.0).requests == requests[4:]

    def test_zero_window_fuses_only_what_is_queued(self):
        requests = [Req(index) for index in range(3)]
        core = core_with(*requests, window=0.0)
        assert core.next(now=0.0).requests == requests

    def test_one_batch_per_model(self):
        a1, b1, a2 = Req(0, "a"), Req(1, "b"), Req(2, "a")
        core = core_with(a1, b1, a2, window=0.0)
        first, second = core.next(now=0.0), core.next(now=0.0)
        assert (first.model, first.requests) == ("a", [a1, a2])
        assert (second.model, second.requests) == ("b", [b1])

    def test_expired_in_queue_is_failed(self):
        stale, fresh = Req(0, deadline=1.0), Req(1, deadline=9.0)
        core = core_with(stale, fresh, window=0.0)
        fail = core.next(now=2.0)
        assert isinstance(fail, Fail) and fail.requests == [stale]
        assert isinstance(stale.error, RequestTimeoutError)
        assert "expired in queue" in str(stale.error)
        assert core.next(now=2.0).requests == [fresh]

    def test_abandoned_while_queued_is_dropped(self):
        gone, kept = Req(0), Req(1)
        core = core_with(gone, kept, window=0.0)
        assert core.abandon(gone)
        assert core.next(now=0.0).requests == [kept]
        assert gone.state == ABANDONED and gone.error is None

    def test_abandoned_while_running_gets_no_result(self):
        gone, kept = Req(0), Req(1)
        core = core_with(gone, kept, window=0.0)
        batch = core.next(now=0.0)
        assert core.abandon(gone)
        assert core.complete(batch, ["row0", "row1"]) == [kept]
        assert gone.result is None and kept.result == "row1"
        # A finished request can no longer be abandoned.
        assert not core.abandon(kept)

    def test_forward_timeout_reap(self):
        request = Req(0)
        core = core_with(request, forward_timeout=2.0)
        batch = core.next(now=1.0)
        assert core.reap(now=2.9) == (None, [])
        reason, fails = core.reap(now=3.0)
        assert reason == "forward-timeout" and core.generation == 2
        assert fails[0].requests == [request]
        assert isinstance(request.error, ForwardTimeoutError)
        # The superseded worker's late result does not land.
        assert core.complete(batch, ["late"]) is None
        assert request.result is None

    def test_no_forward_timeout_never_reaps_a_live_worker(self):
        core = core_with(Req(0))
        core.next(now=0.0)
        assert core.reap(now=1e9) == (None, [])

    def test_worker_death_reap(self):
        request, queued = Req(0), Req(1)
        core = core_with(request)
        core.next(now=0.0)
        core.submit(queued)
        reason, fails = core.reap(now=0.0, worker_alive=False)
        assert reason == "worker-died"
        assert isinstance(request.error, BatchWorkerError)
        # The queue is kept for the replacement worker.
        assert core.next(now=0.0).requests == [queued]

    def test_worker_death_when_idle_still_replaces(self):
        core = core_with()
        assert core.reap(now=0.0, worker_alive=False) == ("worker-died", [])
        assert core.generation == 2

    def test_close_drain_lets_the_worker_finish(self):
        first, second = Req(0), Req(1)
        core = core_with(first, second)
        assert core.next(now=0.0) == Wait(1.0)
        assert core.close(drain=True, error=ServeError("x")) == []
        with pytest.raises(ServeError, match="shutting down"):
            core.submit(Req(2))
        # Nothing else can arrive, so the window is not waited out.
        assert core.next(now=0.0).requests == [first, second]
        assert core.next(now=0.0) is None

    def test_close_without_drain_fails_the_queue(self):
        running, taken, queued = Req(0), Req(1), Req(2)
        core = core_with(running)
        batch = core.next(now=0.0)
        core.submit(taken)
        core.submit(queued)
        error = ServeError("server shut down")
        assert core.close(drain=False, error=error) == [taken, queued]
        assert taken.error is error and queued.error is error
        # The in-flight forward still completes.
        assert core.complete(batch, ["row"]) == [running]
        assert core.next(now=0.0) is None
        # A closed core no longer reaps: shutdown owns the worker now.
        assert core.reap(now=math.inf, worker_alive=False) == (None, [])


class TestClaims:
    """Completing a forward and reaping it are one claim."""

    def test_complete_claims_only_once(self):
        core = core_with(Req(0))
        batch = core.next(now=0.0)
        assert core.complete(batch, ["row"]) is not None
        assert core.complete(batch, ["row"]) is None
        assert core.reap(now=math.inf, worker_alive=False) == ("worker-died", [])

    def test_reap_consumes(self):
        core = core_with(Req(0), forward_timeout=1.0)
        batch = core.next(now=0.0)
        reason, fails = core.reap(now=1.0)
        assert reason == "forward-timeout" and len(fails) == 1
        assert core.reap(now=1.0) == (None, [])
        assert core.complete(batch, ["row"]) is None


# ---------------------------------------------------------------------------
# Exhaustive schedules
# ---------------------------------------------------------------------------

WINDOW, FORWARD_TIMEOUT, HANDLER_TIMEOUT = 1.0, 2.0, 1.5


def rows(batch: Batch) -> list[str]:
    """The forward's result for each request of ``batch``."""
    return [f"row{r.index}" for r in batch.requests]


class World:
    """A core plus the threads around it, advanced one step at a time.

    The steps are the shell's: a handler submits or gives up at its
    deadline, the worker takes its next move or returns from a forward,
    the clock passes a window, a forward wedges past its timeout (the
    watchdog reaps it and the wedged worker may return later), the worker
    dies (the watchdog notices), and ``close`` runs, then fails what is
    left once the worker exits, dies or outlives the join timeout.
    """

    def __init__(self, models, timeout_index, hang, die, drain):
        self.core = BatchCore(WINDOW, 2, FORWARD_TIMEOUT)
        self.requests = [
            Req(index, model, HANDLER_TIMEOUT if index == timeout_index else math.inf)
            for index, model in enumerate(models)
        ]
        self.now = 0.0
        self.submitted = 0
        self.worker = "awake"  # | ("asleep", until) | Batch | "dead" | "exited"
        self.zombie = None  # the batch a superseded, wedged worker still holds
        self.dead_batch = None  # the batch a dead worker held
        self.hang, self.die, self.drain = hang, die, drain
        self.closed = self.joined = False
        self.handlers_done: set[int] = set()
        self.admitted = self.released = 0
        self.finishes: dict[int, list[str]] = {r.index: [] for r in self.requests}

    # ------------------------------------------------------------ bookkeeping
    def finish(self, requests, how: str) -> None:
        for request in requests:
            self.finishes[request.index].append(how)
            assert len(self.finishes[request.index]) == 1, (
                f"{request} finished twice: {self.finishes[request.index]}")
        self.released += len(requests)
        assert self.released <= self.admitted, "an admission slot was released twice"

    def wake(self) -> None:
        if isinstance(self.worker, tuple):
            self.worker = "awake"

    def key(self):
        def ids(requests):
            return tuple(r.index for r in requests)

        def worker(state):
            return ids(state.requests) if isinstance(state, Batch) else state

        core = self.core
        return (
            self.now, self.submitted, worker(self.worker),
            None if self.zombie is None else ids(self.zombie.requests),
            None if self.dead_batch is None else ids(self.dead_batch.requests),
            self.hang, self.die, self.closed, self.joined,
            tuple(sorted(self.handlers_done)), self.admitted, self.released,
            tuple(tuple(v) for v in self.finishes.values()),
            tuple((r.state, r.result, type(r.error).__name__) for r in self.requests),
            ids(core.queue), ids(core.taken),
            core.window_end, core.generation, core.stopping,
            tuple(sorted((ids(b.requests), t) for b, t in core.inflight.items())),
        )

    # ------------------------------------------------------------------ steps
    def moves(self) -> list[str]:
        moves = []
        if self.submitted < len(self.requests):
            moves.append("submit")
        if self.worker == "awake":
            moves.append("step")
        if isinstance(self.worker, tuple) and self.worker[1] < math.inf:
            moves.append("window")
        if isinstance(self.worker, Batch):
            moves.append("return")
            if self.hang and not self.closed:
                moves.append("hang")
        if self.zombie is not None:
            moves.append("zombie-return")
        if self.die and self.worker not in ("dead", "exited"):
            moves.append("die")
        if self.worker == "dead" and not self.closed:
            moves.append("reap-dead")
        if not self.closed:
            moves.append("close")
        elif not self.joined and (self.worker in ("exited", "dead")
                                  or isinstance(self.worker, Batch)):
            moves.append("join")
        for request in self.requests[:self.submitted]:
            if request.index in self.handlers_done:
                continue
            if self.now < request.deadline < math.inf:
                moves.append(f"deadline-{request.index}")
            elif request.deadline <= self.now:
                moves.append(f"give-up-{request.index}")
        return moves

    def apply(self, move: str) -> None:
        if move == "submit":
            request = self.requests[self.submitted]
            self.submitted += 1
            self.admitted += 1
            try:
                self.core.submit(request)
            except ServeError:
                self.handlers_done.add(request.index)
                self.finish([request], "rejected")
            self.wake()
        elif move == "step":
            action = self.core.next(self.now)
            if isinstance(action, Wait):
                self.worker = ("asleep", action.until)
            elif isinstance(action, Fail):
                self.finish(action.requests, "expired")
            else:
                self.worker = "exited" if action is None else action
        elif move == "window":
            self.now = max(self.now, self.worker[1])
            self.worker = "awake"
        elif move == "return":
            batch, self.worker = self.worker, "awake"
            finished = self.core.complete(batch, rows(batch))
            self.finish(finished or [], "result")
        elif move == "hang":
            self.hang = False
            self.now = max(self.now, self.core.inflight[self.worker])
            reason, fails = self.core.reap(self.now)
            assert reason == "forward-timeout"
            self.zombie, self.worker = self.worker, "awake"
            for fail in fails:
                self.finish(fail.requests, "forward-timeout")
        elif move == "zombie-return":
            batch, self.zombie = self.zombie, None
            finished = self.core.complete(batch, rows(batch))
            self.finish(finished or [], "late result")
        elif move == "die":
            self.die = False
            if isinstance(self.worker, Batch):
                self.dead_batch = self.worker
            self.worker = "dead"
        elif move == "reap-dead":
            reason, fails = self.core.reap(self.now, worker_alive=False)
            assert reason == "worker-died"
            self.worker, self.dead_batch = "awake", None
            for fail in fails:
                self.finish(fail.requests, "worker-died")
        elif move == "close":
            self.closed = True
            alive = self.worker not in ("dead", "exited")
            failed = self.core.close(self.drain and alive, ServeError("shut down"))
            self.finish(failed, "shut down")
            self.wake()
        elif move == "join":
            self.joined = True
            self.finish(self.core.close(False, ServeError("left")), "left")
        elif move.startswith("deadline-"):
            self.now = max(self.now, self.requests[int(move.split("-")[1])].deadline)
        elif move.startswith("give-up-"):
            request = self.requests[int(move.split("-")[2])]
            self.handlers_done.add(request.index)
            if self.core.abandon(request):
                self.finish([request], "abandoned")
        else:  # pragma: no cover - a typo in moves()
            raise AssertionError(move)

    # ------------------------------------------------------------- invariants
    def check_final(self) -> set[str]:
        """Check a state with no moves left; return how requests finished."""
        # A request in a dead worker's forward, with close() having stopped
        # the watchdog first, resolves only through its handler's deadline.
        stranded = set()
        if self.dead_batch is not None:
            stranded = {r.index for r in self.dead_batch.requests}
        for request in self.requests:
            if not self.finishes[request.index]:
                assert request.index in stranded, f"{request} never finished"
                assert self.core.abandon(request)
                self.finish([request], "abandoned")
        assert self.released == self.admitted == len(self.requests)
        outcomes = set()
        for request in self.requests:
            (how,) = self.finishes[request.index]
            outcomes.add(how)
            expect_row = f"row{request.index}" if how == "result" else None
            assert request.result == expect_row, f"{request}: a late result landed"
            if how == "rejected":  # submit raised; the core never held it
                assert request.state == "queued" and request.error is None
                continue
            assert (request.error is None) == (how in ("result", "abandoned"))
            assert request.state == (ABANDONED if how == "abandoned" else DONE)
        return outcomes


def explore(world: World) -> tuple[int, int, set[str]]:
    """Visit every state reachable from ``world`` by every order of moves.

    Returns (distinct states, final states, finish kinds seen).  States
    are merged by value, so each interleaving is covered once per state it
    passes through rather than once per path.
    """
    seen, finals, outcomes = set(), 0, set()
    stack = [world]
    while stack:
        state = stack.pop()
        moves = state.moves()
        if not moves:
            finals += 1
            outcomes |= state.check_final()
            continue
        for move in moves:
            child = copy.deepcopy(state)
            child.apply(move)
            key = child.key()
            if key not in seen:
                seen.add(key)
                stack.append(child)
    return len(seen), finals, outcomes


#: name -> (model of each request, the request whose handler times out,
#: a forward wedges, the worker dies, close drains)
SCENARIOS = {
    f"{'hang-' * hang}{'die-' * die}{'drain' if drain else 'no-drain'}":
        (("a", "b", "a"), 1, hang, die, drain)
    for hang, die in ((True, False), (False, True), (True, True))
    for drain in (True, False)
}


class TestExhaustiveSchedules:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_every_interleaving_keeps_the_invariants(self, name):
        """Every request finishes exactly once, admission slots balance,
        and no result lands on a request already failed or abandoned."""
        models, timeout_index, hang, die, drain = SCENARIOS[name]
        states, finals, outcomes = explore(
            World(models, timeout_index, hang=hang, die=die, drain=drain))
        assert finals > 0 and states > finals
        # The schedules reach every way a request can end in the scenario.
        expected = {"result", "expired", "abandoned", "rejected"}
        expected |= {"forward-timeout"} if hang else set()
        expected |= {"worker-died"} if die else set()
        # close() fails the queue unless a live worker drains it, and the
        # worker leaves requests behind only if it stops mid-drain.
        expected |= {"shut down"} if die or not drain else set()
        expected |= {"left"} if drain else set()
        assert outcomes == expected
