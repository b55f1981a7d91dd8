from bench.loadgen import OpenLoop, outstanding_loop


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        assert seconds > 0
        self.now += seconds


def test_open_loop_charges_a_stall_to_the_requests_it_delays():
    clock = FakeClock()
    loop = OpenLoop(gaps=[1.0] * 4, clock=clock, sleep=clock.sleep)
    sent = []

    def submit(index):
        if index == 1:
            clock.now += 2.5  # the system stalls while accepting request 1
        sent.append(index)
        return index

    def wait(handle):
        clock.now += 0.1  # each request takes 0.1 s to serve
        return handle

    pending = []
    loop.schedule(submit, pending.append)
    for outcome, handle in pending:
        loop.complete(outcome, handle, wait)

    dues = [o.due for o in loop.outcomes]
    assert dues == [101.0, 102.0, 103.0, 104.0]  # the schedule ignores the stall
    late = [round(o.late, 6) for o in loop.outcomes]
    # Request 2 was due at 103 but the generator was stuck in submit(1) until
    # 104.5: it ran 1.5 s late; request 3 (due 104) ran 0.5 s late.
    assert late == [0.0, 0.0, 1.5, 0.5]
    # Latency runs from the due time, so the stall is in requests 2 and 3.
    latency = [round(o.latency, 6) for o in loop.outcomes]
    assert latency[2] > 1.5 and latency[3] > 0.5
    assert all(o.error is None for o in loop.outcomes)


def test_open_loop_records_a_refused_request_as_failed():
    clock = FakeClock()
    loop = OpenLoop(gaps=[0.5, 0.5], clock=clock, sleep=clock.sleep)

    def submit(index):
        if index == 0:
            raise RuntimeError("queue full")
        return index

    pending = []
    loop.schedule(submit, pending.append)
    assert [o.error for o in loop.outcomes] == ["RuntimeError", None]
    assert len(pending) == 1


def test_open_loop_run_collects_on_a_second_thread():
    loop = OpenLoop(gaps=[0.001] * 20)
    outcomes = loop.run(lambda i: i * 2, lambda handle: handle + 1)
    assert [o.result for o in outcomes] == [i * 2 + 1 for i in range(20)]
    assert all(o.finished >= o.sent >= o.due - 1e-9 for o in outcomes)


def test_outstanding_loop_keeps_depth_requests_in_flight():
    clock = FakeClock()
    inflight = set()
    peak = []

    def submit(index):
        inflight.add(index)
        peak.append(len(inflight))
        return index

    def wait(handle):
        clock.now += 1.0
        inflight.discard(handle)
        return handle

    outcomes = outstanding_loop(submit, wait, deadline=110.0, depth=4, clock=clock)
    assert max(peak) == 4
    # Retirement k ends at 100 + k; those ending before 110 resubmit (k = 1..9).
    assert len(outcomes) == 4 + 9
    assert all(o.error is None for o in outcomes)
