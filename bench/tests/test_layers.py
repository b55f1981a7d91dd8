import pytest

from bench.layers import per_layer
from bench.trace import Span


def batch_event(size, duration):
    return {"event": "span", "name": "serve.batch", "duration": duration,
            "attrs": {"model": "bench", "batch_size": size}}


def test_batch_size_and_time_come_from_the_batchers_own_spans():
    events = [batch_event(1, 0.010), batch_event(8, 0.030), batch_event(3, 0.020)]
    out = per_layer([], events, archive_bytes=1)
    assert out["batcher.batch_size_mean"] == (pytest.approx(4.0), "count")
    assert out["batcher.batch_size_max"] == (8.0, "count")
    assert out["batcher.batch_ms_p50"] == (pytest.approx(20.0), "ms")


def test_queue_wait_and_padding_come_from_the_batch_leases():
    lease = Span(id="b1", parent=None, name="registry.lease", start=1.0, end=2.0,
                 attrs={"requests": ["r1", "r2"], "queue_wait": [0.004, 0.002]})
    forward = Span(id="s2", parent="b1", name="models.forward", start=1.1, end=1.9,
                   attrs={"rows": 2, "seq": 4, "padding": 2, "cells": 8})
    # A lease outside the batcher (no requests) is not a batch.
    plain = Span(id="b3", parent=None, name="registry.lease", start=3.0, end=4.0,
                 attrs={"requests": [], "queue_wait": []})
    out = per_layer([lease, forward, plain], [], archive_bytes=1)
    assert out["batcher.queue_wait_ms_p50"] == (pytest.approx(3.0), "ms")
    assert out["batcher.pad_fraction"] == (pytest.approx(0.25), "fraction")
