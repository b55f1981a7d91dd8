"""Resume determinism: a killed-and-resumed run equals an uninterrupted one.

The acceptance bar for the durability subsystem is *byte* identity: the
final ``.npz`` archive of a run that died mid-flight and was resumed must
equal, byte for byte, the archive of a run that never died — for every
worker count and with tracing on or off.  The deterministic zip writer
makes the comparison meaningful.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.core.model_quantizer import quantize_state_dict
from repro.core.parallel import LayerJob, quantize_layers
from repro.core.serialization import save_quantized_model
from repro.errors import JobStateError
from repro.jobs.journal import JOURNAL_NAME, read_journal, record_checksum
from repro.jobs.runner import (
    DurableJob,
    ShardCorruptionWarning,
    job_fingerprint,
    job_status,
    load_shard,
    render_status,
    save_shard,
)
from repro.testing.faults import (
    Fault,
    InjectedFault,
    corrupt_bytes,
    injector_from_spec,
)
from repro.utils.rng import derive_rng

FC_NAMES = tuple(f"layer{i}.weight" for i in range(5))


@pytest.fixture(scope="module")
def state():
    rng = derive_rng(4242, "jobs-resume")
    state = {name: rng.normal(0.0, 0.04, size=(24, 24)) for name in FC_NAMES}
    state["passthrough.bias"] = rng.normal(0.0, 0.01, size=24)
    return state


def _clean_archive(state, path):
    model = quantize_state_dict(state, fc_names=FC_NAMES, workers=1)
    save_quantized_model(model, path)
    return path.read_bytes()


class TestShards:
    def test_shard_round_trip_is_bit_exact(self, state, tmp_path):
        jobs = [LayerJob(n, 3) for n in FC_NAMES]
        quantized, iterations, _ = quantize_layers(state, jobs)
        name = FC_NAMES[0]
        relpath, sha, size = save_shard(tmp_path, name, quantized[name], iterations[name])
        assert size == (tmp_path / relpath).stat().st_size
        loaded_name, tensor, its = load_shard(tmp_path / relpath)
        assert loaded_name == name and its == iterations[name]
        original = quantized[name]
        assert tensor.packed_codes == original.packed_codes
        assert np.array_equal(tensor.centroids, original.centroids)
        assert tensor.centroids.dtype == original.centroids.dtype
        assert np.array_equal(tensor.outlier_positions, original.outlier_positions)
        assert np.array_equal(tensor.outlier_values, original.outlier_values)
        assert tensor.shape == original.shape and tensor.bits == original.bits

    def test_corrupt_shard_detected(self, state, tmp_path):
        from repro.errors import ChecksumMismatchError, SerializationError

        jobs = [LayerJob(FC_NAMES[0], 3)]
        quantized, iterations, _ = quantize_layers(state, jobs)
        relpath, _, _ = save_shard(
            tmp_path, FC_NAMES[0], quantized[FC_NAMES[0]], iterations[FC_NAMES[0]]
        )
        # Flip a byte inside array data (late offsets can land in ZIP
        # central-directory fields that parse fine — those flips are caught
        # by the journaled whole-file SHA-256 on resume instead).
        corrupt_bytes(tmp_path / relpath, (tmp_path / relpath).stat().st_size // 4)
        with pytest.raises((ChecksumMismatchError, SerializationError)):
            load_shard(tmp_path / relpath)


class TestFingerprint:
    def test_stable_and_sensitive(self):
        jobs = [LayerJob("a", 3), LayerJob("b", 4)]
        base = dict(method="gobo", log_prob_threshold=-4.0, validation="strict",
                    on_error="fail", max_iterations=50)
        fp = job_fingerprint(jobs, **base)
        assert fp == job_fingerprint(list(jobs), **base)
        assert fp != job_fingerprint(jobs[:1], **base)
        assert fp != job_fingerprint([LayerJob("a", 4), LayerJob("b", 4)], **base)
        assert fp != job_fingerprint(jobs, **{**base, "method": "kmeans"})
        assert fp != job_fingerprint(jobs, **{**base, "on_error": "skip"})
        assert fp != job_fingerprint(jobs, **base, extra={"seed": 1})


class TestResumeDeterminism:
    """The tentpole guarantee, exercised across workers x tracing."""

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("traced", [False, True])
    def test_killed_then_resumed_equals_uninterrupted(
        self, state, tmp_path, workers, traced
    ):
        baseline = _clean_archive(state, tmp_path / "clean.npz")
        job_dir = tmp_path / f"job-w{workers}-t{traced}"
        sink = obs.MemorySink()
        if traced:
            obs.install(sink)
        try:
            # "Kill" the first run mid-flight: a poisoned layer under
            # on_error=fail aborts the engine, but every layer that finished
            # before the abort is already journaled (the job is durable per
            # layer, not per run).
            with pytest.raises(InjectedFault):
                quantize_state_dict(
                    state, fc_names=FC_NAMES, workers=workers, job=DurableJob(job_dir),
                    fault_injector=Fault("raise", target=FC_NAMES[3]),
                )
            status = job_status(job_dir)
            assert status.pending, "the aborted run should leave pending layers"
            resumed = quantize_state_dict(
                state, fc_names=FC_NAMES, workers=workers,
                job=DurableJob(job_dir, resume=True),
            )
        finally:
            if traced:
                obs.uninstall(sink)
        save_quantized_model(resumed, tmp_path / "resumed.npz")
        assert (tmp_path / "resumed.npz").read_bytes() == baseline
        assert resumed.report.resumed_layers == len(status.completed)
        assert job_status(job_dir).complete

    @pytest.mark.parametrize("resume_workers", [1, 4])
    def test_resume_across_worker_counts(self, state, tmp_path, resume_workers):
        baseline = _clean_archive(state, tmp_path / "clean.npz")
        job_dir = tmp_path / f"job-rw{resume_workers}"
        with pytest.raises(InjectedFault):
            quantize_state_dict(
                state, fc_names=FC_NAMES, workers=2, job=DurableJob(job_dir),
                fault_injector=Fault("raise", target=FC_NAMES[2]),
            )
        resumed = quantize_state_dict(
            state, fc_names=FC_NAMES, workers=resume_workers,
            job=DurableJob(job_dir, resume=True),
        )
        save_quantized_model(resumed, tmp_path / "resumed.npz")
        assert (tmp_path / "resumed.npz").read_bytes() == baseline

    def test_fresh_durable_run_matches_plain_run(self, state, tmp_path):
        baseline = _clean_archive(state, tmp_path / "clean.npz")
        model = quantize_state_dict(
            state, fc_names=FC_NAMES, workers=3, job=DurableJob(tmp_path / "job")
        )
        save_quantized_model(model, tmp_path / "durable.npz")
        assert (tmp_path / "durable.npz").read_bytes() == baseline
        assert job_status(tmp_path / "job").complete

    def test_resume_of_complete_job_loads_everything(self, state, tmp_path):
        baseline = _clean_archive(state, tmp_path / "clean.npz")
        job_dir = tmp_path / "job"
        quantize_state_dict(state, fc_names=FC_NAMES, job=DurableJob(job_dir))
        with obs.scope() as scoped:
            model = quantize_state_dict(
                state, fc_names=FC_NAMES, job=DurableJob(job_dir, resume=True)
            )
        assert model.report.resumed_layers == len(FC_NAMES)
        assert scoped.snapshot().counter("job.resumed_layers") == len(FC_NAMES)
        save_quantized_model(model, tmp_path / "resumed.npz")
        assert (tmp_path / "resumed.npz").read_bytes() == baseline

    def test_widened_layer_resumes_as_one_layer(self, state, tmp_path):
        # retry-higher-bits journals a recovered layer twice (layer-done and
        # layer-failed); a resume must still count it once.
        jobs = [LayerJob(n, 3) for n in FC_NAMES[:4]]
        _, _, first = quantize_layers(
            state, jobs, on_error="retry-higher-bits",
            fault_injector=injector_from_spec(f"transient-io:{FC_NAMES[1]}:1"),
            job=DurableJob(tmp_path / "job"),
        )
        assert [f.recovered_bits for f in first.failures] == [4]
        with obs.scope() as scoped:
            quantized, _, resumed = quantize_layers(
                state, jobs, on_error="retry-higher-bits",
                job=DurableJob(tmp_path / "job", resume=True),
            )
        assert resumed.resumed_layers == len(jobs)
        assert scoped.snapshot().counter("job.resumed_layers") == len(jobs)
        assert resumed.failures == first.failures
        assert set(quantized) == {job.name for job in jobs}


class TestLegacyProcessJournal:
    """Job dirs the former process backend wrote stay resumable.

    That backend put a ``lease`` record before every ``layer-done`` and a
    ``lease-broken`` after a worker death.  The reader ends the trusted
    prefix at an unknown record type, so if it stopped knowing either type
    such a journal would read as its ``job-meta`` line alone, and a resume
    would redo every journaled layer and truncate the journal.
    """

    @staticmethod
    def _line(record):
        # The journal envelope, built here rather than by the writer, which
        # no longer emits lease records.
        envelope = {"r": record, "sha256": record_checksum(record)}
        return json.dumps(envelope, sort_keys=True, separators=(",", ":")) + "\n"

    def _process_shaped_job(self, state, job_dir):
        """A job dir killed after three layers, journaled in the process shape."""
        with pytest.raises(InjectedFault):
            quantize_state_dict(
                state, fc_names=FC_NAMES, job=DurableJob(job_dir),
                fault_injector=Fault("raise", target=FC_NAMES[3]),
            )
        written = read_journal(job_dir / JOURNAL_NAME).records
        meta, done = written[0], written[1:]
        assert meta["type"] == "job-meta" and len(done) == 3
        records = [meta]
        for worker, record in enumerate(done):
            records.append({
                "type": "lease", "name": record["name"], "bits": 3,
                "worker": worker % 2, "pid": 1000 + worker % 2, "attempt": 0,
                "deadline": 1.0e9,
            })
            records.append(record)
        # Worker 0 died on the fourth layer, which went to worker 1; the
        # supervisor was killed while worker 1 held it.
        lease = {"type": "lease", "name": FC_NAMES[3], "bits": 3, "worker": 0,
                 "pid": 1000, "attempt": 0, "deadline": 1.0e9}
        records += [
            lease,
            {"type": "lease-broken", "name": FC_NAMES[3], "worker": 0, "pid": 1000,
             "reason": "process exited unexpectedly", "reassigned": True},
            {**lease, "worker": 1, "pid": 1001, "attempt": 1},
        ]
        (job_dir / JOURNAL_NAME).write_text("".join(map(self._line, records)))
        return records, [record["name"] for record in done]

    def test_process_journal_resumes_to_the_clean_archive(self, state, tmp_path):
        baseline = _clean_archive(state, tmp_path / "clean.npz")
        job_dir = tmp_path / "job"
        records, journaled = self._process_shaped_job(state, job_dir)
        read = read_journal(job_dir / JOURNAL_NAME)
        assert read.intact and read.records == records
        status = job_status(job_dir)
        assert status.completed == journaled and status.intact
        assert status.pending == list(FC_NAMES[3:])
        resumed = quantize_state_dict(
            state, fc_names=FC_NAMES, workers=2, job=DurableJob(job_dir, resume=True)
        )
        assert resumed.report.resumed_layers == len(journaled)
        save_quantized_model(resumed, tmp_path / "resumed.npz")
        assert (tmp_path / "resumed.npz").read_bytes() == baseline
        # The legacy prefix survives the resume whole; new records follow it.
        assert read_journal(job_dir / JOURNAL_NAME).records[: len(records)] == records
        assert job_status(job_dir).complete


class TestResumeSafety:
    def test_existing_journal_requires_resume_flag(self, state, tmp_path):
        jobs = [LayerJob(n, 3) for n in FC_NAMES]
        quantize_layers(state, jobs, job=DurableJob(tmp_path / "job"))
        with pytest.raises(JobStateError, match="resume"):
            quantize_layers(state, jobs, job=DurableJob(tmp_path / "job"))

    def test_fingerprint_mismatch_refused(self, state, tmp_path):
        jobs = [LayerJob(n, 3) for n in FC_NAMES]
        quantize_layers(state, jobs, job=DurableJob(tmp_path / "job"))
        with pytest.raises(JobStateError, match="fingerprint"):
            quantize_layers(
                state, jobs[:3], job=DurableJob(tmp_path / "job", resume=True)
            )
        with pytest.raises(JobStateError, match="fingerprint"):
            quantize_layers(
                state, jobs, method="kmeans",
                job=DurableJob(tmp_path / "job", resume=True),
            )

    def test_duplicate_layer_names_rejected(self, state, tmp_path):
        jobs = [LayerJob(FC_NAMES[0], 3), LayerJob(FC_NAMES[0], 4)]
        with pytest.raises(JobStateError, match="unique"):
            quantize_layers(state, jobs, job=DurableJob(tmp_path / "job"))

    def test_corrupt_shard_requantizes_that_layer(self, state, tmp_path):
        baseline = _clean_archive(state, tmp_path / "clean.npz")
        job_dir = tmp_path / "job"
        quantize_state_dict(state, fc_names=FC_NAMES, job=DurableJob(job_dir))
        status = job_status(job_dir)
        # Bit-rot one journaled shard; resume must notice, warn, and redo it.
        shard = next((job_dir / "shards").glob("*.npz"))
        corrupt_bytes(shard, shard.stat().st_size // 2)
        with obs.scope() as scoped, pytest.warns(ShardCorruptionWarning):
            model = quantize_state_dict(
                state, fc_names=FC_NAMES, job=DurableJob(job_dir, resume=True)
            )
        assert scoped.snapshot().counter("job.shard_requantized") == 1
        assert model.report.resumed_layers == len(status.completed) - 1
        save_quantized_model(model, tmp_path / "resumed.npz")
        assert (tmp_path / "resumed.npz").read_bytes() == baseline

    def test_torn_journal_tail_recovered_on_resume(self, state, tmp_path):
        baseline = _clean_archive(state, tmp_path / "clean.npz")
        job_dir = tmp_path / "job"
        with pytest.raises(InjectedFault):
            quantize_state_dict(
                state, fc_names=FC_NAMES, job=DurableJob(job_dir),
                fault_injector=Fault("raise", target=FC_NAMES[4]),
            )
        # Simulate SIGKILL mid-append: garbage bytes after the last record.
        with open(job_dir / "journal.jsonl", "ab") as handle:
            handle.write(b'{"r": {"type": "layer-do')
        assert not job_status(job_dir).intact
        model = quantize_state_dict(
            state, fc_names=FC_NAMES, job=DurableJob(job_dir, resume=True)
        )
        save_quantized_model(model, tmp_path / "resumed.npz")
        assert (tmp_path / "resumed.npz").read_bytes() == baseline
        assert job_status(job_dir).intact

    def test_journaled_failures_are_final_on_resume(self, state, tmp_path):
        jobs = [LayerJob(n, 3) for n in FC_NAMES]
        _, _, first = quantize_layers(
            state, jobs, job=DurableJob(tmp_path / "job"), on_error="fp32-fallback",
            fault_injector=Fault("raise", target=FC_NAMES[1]),
        )
        assert [f.name for f in first.failures] == [FC_NAMES[1]]
        # Resume WITHOUT the fault injector: the journaled failure persists
        # rather than silently re-running the layer.
        quantized, _, second = quantize_layers(
            state, jobs, job=DurableJob(tmp_path / "job", resume=True),
            on_error="fp32-fallback",
        )
        assert [f.name for f in second.failures] == [FC_NAMES[1]]
        assert FC_NAMES[1] not in quantized


class TestStatus:
    def test_status_counts_and_render(self, state, tmp_path):
        job_dir = tmp_path / "job"
        with pytest.raises(InjectedFault):
            quantize_state_dict(
                state, fc_names=FC_NAMES, job=DurableJob(job_dir),
                fault_injector=Fault("raise", target=FC_NAMES[3]),
            )
        status = job_status(job_dir)
        assert len(status.jobs) == len(FC_NAMES)
        assert not status.complete and status.state == "incomplete"
        assert set(status.completed) | set(status.pending) == set(FC_NAMES)
        text = render_status(status)
        assert "pending" in text and str(len(FC_NAMES)) in text

    def test_status_on_non_job_dir_raises(self, tmp_path):
        with pytest.raises(JobStateError):
            job_status(tmp_path)
