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

from repro.cli import main
from repro.core.model_quantizer import quantize_state_dict
from repro.core.parallel import (
    BACKEND_ENV,
    LayerJob,
    quantize_layers,
    resolve,
)
from repro.core.serialization import save_quantized_model
from repro.errors import QuantizationError
from repro.jobs.runner import DurableJob, job_status
from repro.obs import recorder as obs
from repro.obs.events import read_trace_lenient
from repro.obs.sinks import JsonlSink
from repro.testing.faults import InjectedFault, injector_from_spec
from repro.utils.rng import derive_rng

FC_NAMES = tuple(f"layer{i}.weight" for i in range(6))
JOBS = [LayerJob(name, 3) for name in FC_NAMES]


@pytest.fixture(autouse=True)
def fast_supervision(monkeypatch):
    """Fast supervision for tests: beat every 50 ms, declare death after 5 s."""
    monkeypatch.setenv("REPRO_HEARTBEAT_INTERVAL", "0.05")
    monkeypatch.setenv("REPRO_HEARTBEAT_TIMEOUT", "5")


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
        model = quantize_state_dict(
            state,
            fc_names=FC_NAMES,
            workers=2,
            backend="process",
            job=DurableJob(job_dir),
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

    def test_injector_object_reaches_the_workers(self, state, thread_archive, tmp_path):
        # The run's injector travels with its job runner; worker 1's copy
        # kills it on its first layer, and the stall gives worker 1 one.
        model = quantize_state_dict(
            state,
            fc_names=FC_NAMES,
            workers=2,
            backend="process",
            fault_injector=injector_from_spec("kill-worker:1,slow:0.2"),
        )
        assert model.report.worker_deaths == 1
        assert _archive_bytes(model, tmp_path / "fleet.npz") == thread_archive


class TestSupervisionPlumbing:
    def test_worker_events_merged_into_report(self, state, tmp_path):
        _, _, report = quantize_layers(
            state, JOBS, workers=2, backend="process", job=DurableJob(tmp_path)
        )
        # Worker-local traces were written and merged: spans recorded inside
        # the worker processes show up in the supervisor's snapshot.
        traces = sorted((tmp_path / "obs").glob("worker-*.jsonl"))
        assert traces and all(t.stat().st_size > 0 for t in traces)
        assert report.metrics is not None
        assert "fleet.task" in report.metrics.spans
        assert "engine.layer" in report.metrics.spans
        assert report.metrics.counters["fleet.leases"] == len(JOBS)

    def test_transient_fault_absorbed_inside_worker(self, state, thread_archive, tmp_path):
        model = quantize_state_dict(
            state, fc_names=FC_NAMES, workers=2, backend="process"
        )
        faulted = quantize_layers(
            state,
            JOBS,
            workers=2,
            transient_retries=3,
            fault_injector=injector_from_spec("transient-io:0:2"),
            backend="process",
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
            quantize_layers(
                state,
                JOBS,
                workers=2,
                fault_injector=injector_from_spec("raise:2"),
                backend="process",
            )

    def test_on_error_skip_drops_only_the_failed_layer(self, state):
        quantized, _, report = quantize_layers(
            state,
            JOBS,
            workers=2,
            on_error="skip",
            fault_injector=injector_from_spec(f"raise:{FC_NAMES[2]}"),
            backend="process",
        )
        assert set(quantized) == set(FC_NAMES) - {FC_NAMES[2]}
        assert [f.name for f in report.failures] == [FC_NAMES[2]]
        assert report.failures[0].dropped

    def test_empty_jobs_short_circuits(self, state):
        quantized, iterations, report = quantize_layers(
            state, [], workers=4, backend="process"
        )
        assert quantized == {} and iterations == {}
        assert report.backend == "process"


class TestConfigValidation:
    def test_timeout_must_exceed_interval(self, state, monkeypatch):
        monkeypatch.setenv("REPRO_HEARTBEAT_INTERVAL", "1.0")
        monkeypatch.setenv("REPRO_HEARTBEAT_TIMEOUT", "0.5")
        with pytest.raises(QuantizationError, match="heartbeat"):
            quantize_layers(state, [LayerJob(FC_NAMES[0], 3)], backend="process")

    def test_bad_fault_spec_rejected_before_spawn(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FAULTS", "kill-worker:not-a-number")
        job_dir = tmp_path / "job"
        assert main([
            "quantize", "--backend", "process", "--job-dir", str(job_dir),
        ]) == 2
        assert "fault spec" in capsys.readouterr().err
        assert not job_dir.exists()

    def test_bad_backend_rejected_before_the_journal(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(BACKEND_ENV, "bogus")
        job_dir = tmp_path / "job"
        assert main(["quantize", "--job-dir", str(job_dir)]) == 2
        assert "backend" in capsys.readouterr().err
        assert not job_dir.exists()

    def test_missing_tensor_rejected(self, state):
        with pytest.raises(QuantizationError, match="missing"):
            quantize_layers(state, [LayerJob("no.such.tensor", 3)], backend="process")

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
