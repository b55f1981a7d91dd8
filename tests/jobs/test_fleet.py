"""Supervised process-fleet engine: determinism, supervision plumbing, config.

The contract under test is the headline guarantee of ``backend="process"``:
archive bytes identical to the thread backend at every worker count, with the
supervision machinery (heartbeats, leases, worker-local traces) invisible in
the output.  Chaos scenarios — killed, muted and hung workers — live in
``test_fleet_chaos.py``; this module covers the happy path and the unit
surface (lenient trace reader, validation of the knobs).  The deadline
ledger the supervisor reaps silent workers with is tested in
``test_watchdog.py``.
"""

import json

import pytest

from repro.core.model_quantizer import quantize_state_dict
from repro.core.parallel import (
    BACKEND_ENV,
    LayerJob,
    quantize_layers,
    resolve,
)
from repro.core.serialization import save_quantized_model
from repro.errors import QuantizationError
from repro.jobs.fleet import run_fleet_layers
from repro.jobs.runner import durable_quantize_state_dict, job_status
from repro.obs import recorder as obs
from repro.obs.events import read_trace_lenient
from repro.obs.sinks import JsonlSink
from repro.testing.faults import Fault, InjectedFault
from repro.utils.rng import derive_rng

FC_NAMES = tuple(f"layer{i}.weight" for i in range(6))
# Fast supervision for tests: beat every 50 ms, declare death after 5 s.
FLEET_KW = dict(heartbeat_interval=0.05, heartbeat_timeout=5.0)


@pytest.fixture(scope="module")
def state():
    rng = derive_rng(4242, "jobs-fleet")
    state = {name: rng.normal(0.0, 0.04, size=(24, 24)) for name in FC_NAMES}
    state["passthrough.bias"] = rng.normal(0.0, 0.01, size=24)
    return state


@pytest.fixture(scope="module")
def thread_archive(state, tmp_path_factory):
    """Archive bytes of the reference single-thread run."""
    path = tmp_path_factory.mktemp("fleet-ref") / "thread.npz"
    model = quantize_state_dict(state, fc_names=FC_NAMES, workers=1)
    save_quantized_model(model, path)
    return path.read_bytes()


def _archive_bytes(model, path):
    save_quantized_model(model, path)
    return path.read_bytes()


class TestByteIdentity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_process_backend_matches_thread(
        self, state, thread_archive, tmp_path, workers
    ):
        model = quantize_state_dict(
            state, fc_names=FC_NAMES, workers=workers, backend="process"
        )
        assert model.report.backend == "process"
        assert model.report.worker_deaths == 0
        assert model.report.reassignments == 0
        assert _archive_bytes(model, tmp_path / "fleet.npz") == thread_archive

    def test_durable_fleet_run_matches_thread(self, state, thread_archive, tmp_path):
        job_dir = tmp_path / "job"
        model = durable_quantize_state_dict(
            state,
            fc_names=FC_NAMES,
            workers=2,
            backend="process",
            job_dir=job_dir,
        )
        assert _archive_bytes(model, tmp_path / "fleet.npz") == thread_archive
        # Leases went through the journal, and the completed job holds none.
        records = [
            json.loads(line)["r"]["type"]
            for line in (job_dir / "journal.jsonl").read_text().splitlines()
        ]
        assert "lease" in records
        status = job_status(job_dir)
        assert status.complete and not status.active_leases
        assert status.worker_deaths == 0 and status.broken_leases == 0


class TestSupervisionPlumbing:
    def test_worker_events_merged_into_report(self, state, tmp_path):
        jobs = [LayerJob(name, 3) for name in FC_NAMES]
        _, _, report = run_fleet_layers(
            state, jobs, workers=2, obs_dir=tmp_path, **FLEET_KW
        )
        # Worker-local traces were written and merged: spans recorded inside
        # the worker processes show up in the supervisor's snapshot.
        traces = sorted(tmp_path.glob("worker-*.jsonl"))
        assert traces and all(t.stat().st_size > 0 for t in traces)
        assert report.metrics is not None
        assert "fleet.task" in report.metrics.spans
        assert "engine.layer" in report.metrics.spans
        assert report.metrics.counters["fleet.leases"] == len(jobs)

    def test_transient_fault_absorbed_inside_worker(self, state, thread_archive, tmp_path):
        model = quantize_state_dict(
            state, fc_names=FC_NAMES, workers=2, backend="process"
        )
        faulted = run_fleet_layers(
            state,
            [LayerJob(name, 3) for name in FC_NAMES],
            workers=2,
            transient_retries=3,
            fault_spec="transient-io:0:2",
            **FLEET_KW,
        )
        quantized, _, report = faulted
        assert not report.failures
        assert report.metrics.counters["engine.retry"] >= 2
        # The retried layer is still bit-exact.
        name = FC_NAMES[0]
        assert quantized[name].packed_codes == model.quantized[name].packed_codes

    def test_worker_error_propagates_under_on_error_fail(self, state):
        # The worker's exception crosses the pipe with its type intact.
        with pytest.raises(InjectedFault, match="injected"):
            run_fleet_layers(
                state,
                [LayerJob(name, 3) for name in FC_NAMES],
                workers=2,
                fault_spec="raise:2",
                **FLEET_KW,
            )

    def test_on_error_skip_drops_only_the_failed_layer(self, state):
        quantized, _, report = run_fleet_layers(
            state,
            [LayerJob(name, 3) for name in FC_NAMES],
            workers=2,
            on_error="skip",
            fault_spec=f"raise:{FC_NAMES[2]}",
            **FLEET_KW,
        )
        assert set(quantized) == set(FC_NAMES) - {FC_NAMES[2]}
        assert [f.name for f in report.failures] == [FC_NAMES[2]]
        assert report.failures[0].dropped

    def test_empty_jobs_short_circuits(self, state):
        quantized, iterations, report = run_fleet_layers(state, [], workers=4)
        assert quantized == {} and iterations == {}
        assert report.backend == "process"


class TestConfigValidation:
    def test_fault_injector_object_rejected(self, state):
        with pytest.raises(QuantizationError, match="REPRO_FAULTS"):
            run_fleet_layers(
                state,
                [LayerJob(FC_NAMES[0], 3)],
                fault_injector=Fault("raise", target=0),
            )

    def test_injector_object_rejected_through_quantize_state_dict(self, state):
        with pytest.raises(QuantizationError, match="REPRO_FAULTS"):
            quantize_state_dict(
                state,
                fc_names=FC_NAMES,
                backend="process",
                fault_injector=Fault("raise", target=0),
            )

    def test_timeout_must_exceed_interval(self, state):
        with pytest.raises(QuantizationError, match="heartbeat"):
            run_fleet_layers(
                state,
                [LayerJob(FC_NAMES[0], 3)],
                heartbeat_interval=1.0,
                heartbeat_timeout=0.5,
            )

    def test_bad_fault_spec_rejected_before_spawn(self, state):
        with pytest.raises(QuantizationError, match="fault spec"):
            run_fleet_layers(
                state,
                [LayerJob(FC_NAMES[0], 3)],
                fault_spec="kill-worker:not-a-number",
            )

    def test_missing_tensor_rejected(self, state):
        with pytest.raises(QuantizationError, match="missing"):
            run_fleet_layers(state, [LayerJob("no.such.tensor", 3)])

    @pytest.mark.parametrize(
        "env, name",
        [
            ("REPRO_HEARTBEAT_INTERVAL", "heartbeat_interval"),
            ("REPRO_HEARTBEAT_TIMEOUT", "heartbeat_timeout"),
            ("REPRO_MAX_REASSIGNMENTS", "max_reassignments"),
        ],
    )
    def test_bad_env_values_rejected(self, monkeypatch, env, name):
        monkeypatch.setenv(env, "not-a-number")
        with pytest.raises(QuantizationError, match=env):
            resolve(name)
        monkeypatch.setenv(env, "-1")
        with pytest.raises(QuantizationError):
            resolve(name)

    def test_resolve_backend(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve("backend") == "thread"
        assert resolve("backend", "process") == "process"
        monkeypatch.setenv(BACKEND_ENV, "process")
        assert resolve("backend") == "process"
        with pytest.raises(QuantizationError, match="backend"):
            resolve("backend", "carrier-pigeon")
        monkeypatch.setenv(BACKEND_ENV, "bogus")
        with pytest.raises(QuantizationError, match="backend"):
            resolve("backend")


class TestTraceMergeUnits:
    def _record_trace(self, path):
        sink = obs.install(JsonlSink(path))
        try:
            with obs.scope():
                with obs.span("unit.work"):
                    obs.counter("unit.count", 3)
        finally:
            obs.uninstall(sink)
            sink.close()

    def test_lenient_reader_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "worker-0.jsonl"
        self._record_trace(path)
        whole, skipped = read_trace_lenient(path)
        assert skipped == 0 and len(whole) == 2  # one counter + one span close
        # A SIGKILL mid-write leaves a torn final line; everything before it
        # must still be recovered.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"v": 1, "event": "counter", "na')
        events, skipped = read_trace_lenient(path)
        assert skipped == 1
        assert [e["name"] for e in events] == [e["name"] for e in whole]

    def test_replay_feeds_events_into_active_scope(self, tmp_path):
        path = tmp_path / "worker-0.jsonl"
        self._record_trace(path)
        events, _ = read_trace_lenient(path)
        with obs.scope() as scoped:
            assert obs.replay(events) == len(events)
            snapshot = scoped.snapshot()
        assert snapshot.counters["unit.count"] == 3
        assert "unit.work" in snapshot.spans

    def test_replay_is_a_no_op_when_inactive(self, tmp_path):
        path = tmp_path / "worker-0.jsonl"
        self._record_trace(path)
        events, _ = read_trace_lenient(path)
        assert obs.replay(events) == 0
