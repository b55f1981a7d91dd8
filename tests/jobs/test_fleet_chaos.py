"""Process-level chaos: the fleet survives killed, muted and hung workers.

Every scenario asserts the same invariant from two sides: the supervision
machinery reacts (worker declared dead, layer reassigned, timeout failure
recorded) *and* the final archive is byte-identical to an undisturbed
single-thread run.  The subprocess test at the bottom is the end-to-end
proof for the whole fleet dying at once: SIGKILL the supervisor itself,
then ``--resume`` completes the job to the same bytes.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.model_quantizer import quantize_state_dict
from repro.core.parallel import LayerJob, quantize_layers
from repro.errors import WorkerCrashError
from repro.jobs.runner import DurableJob, job_status, render_status
from repro.testing.faults import Fault, compose_injectors, injector_from_spec
from repro.utils.rng import derive_rng

FC_NAMES = tuple(f"layer{i}.weight" for i in range(6))
JOBS = [LayerJob(name, 3) for name in FC_NAMES]
REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(autouse=True)
def fast_supervision(monkeypatch):
    """Fast supervision for tests: beat every 50 ms, declare death after 5 s."""
    monkeypatch.setenv("REPRO_HEARTBEAT_INTERVAL", "0.05")
    monkeypatch.setenv("REPRO_HEARTBEAT_TIMEOUT", "5")


@pytest.fixture(scope="module")
def state():
    rng = derive_rng(4242, "jobs-fleet-chaos")
    state = {name: rng.normal(0.0, 0.04, size=(24, 24)) for name in FC_NAMES}
    state["passthrough.bias"] = rng.normal(0.0, 0.01, size=24)
    return state


@pytest.fixture(scope="module")
def reference(state):
    """Quantized tensors of the undisturbed single-thread run."""
    quantized, _, _ = quantize_layers(state, JOBS)
    return quantized


def _assert_identical(quantized, reference):
    assert set(quantized) == set(reference)
    for name, tensor in quantized.items():
        assert tensor.packed_codes == reference[name].packed_codes, name


class TestWorkerDeath:
    # A worker-targeted fault fires only if its worker leases a layer; the
    # stall on every layer keeps a peer from draining the queue before the
    # target worker has forked.

    def test_sigkilled_worker_costs_one_attempt(self, state, reference):
        quantized, _, report = quantize_layers(
            state,
            JOBS,
            workers=3,
            fault_injector=injector_from_spec("kill-worker:1,slow:0.2"),
            backend="process",
        )
        assert report.worker_deaths == 1
        assert report.reassignments == 1
        assert not report.failures
        _assert_identical(quantized, reference)

    def test_muted_worker_detected_and_replaced(self, state, reference, monkeypatch):
        # Worker 1 stops beating mid-layer; the liveness monitor must kill
        # and replace it well before the mute fault's 30 s harness bound.
        monkeypatch.setenv("REPRO_HEARTBEAT_TIMEOUT", "0.4")
        quantized, _, report = quantize_layers(
            state,
            JOBS,
            workers=2,
            fault_injector=injector_from_spec("mute-worker:1,slow:0.2"),
            backend="process",
        )
        assert report.worker_deaths == 1
        assert report.reassignments == 1
        _assert_identical(quantized, reference)

    def test_hung_worker_is_a_timeout_not_a_death(self, state):
        # The stall checkpoints, so the *worker-local* watchdog converts it
        # into an ordinary timeout failure while heartbeats keep flowing:
        # the worker survives and keeps taking tasks.  The hang fires once
        # (hang-worker would hang every layer worker 1 leases).
        quantized, _, report = quantize_layers(
            state,
            JOBS,
            workers=2,
            on_error="skip",
            layer_timeout=0.4,
            fault_injector=compose_injectors(
                Fault("hang", worker=1, times=1, seconds=10),
                Fault("slow", seconds=0.1),
            ),
            backend="process",
        )
        assert report.worker_deaths == 0
        assert len(report.failures) == 1
        assert report.failures[0].action == "timeout"
        assert len(quantized) == len(FC_NAMES) - 1

    def test_every_worker_dying_raises_worker_crash(self, state):
        with pytest.raises(WorkerCrashError, match="every fleet worker died"):
            quantize_layers(
                state,
                JOBS,
                workers=2,
                fault_injector=injector_from_spec("kill-worker:0,kill-worker:1"),
                backend="process",
            )

    @pytest.mark.parametrize(
        "on_error", ["fp32-fallback", "retry-higher-bits", "skip", "fail"]
    )
    def test_death_past_reassignment_budget_goes_to_on_error(
        self, state, reference, monkeypatch, on_error
    ):
        # No reassignment allowed: worker 1's crash resolves the layer it
        # held through on_error, which never widens a crash.
        monkeypatch.setenv("REPRO_MAX_REASSIGNMENTS", "0")
        run = dict(
            workers=2,
            on_error=on_error,
            fault_injector=injector_from_spec("kill-worker:1,slow:0.2"),
            backend="process",
        )
        if on_error == "fail":
            with pytest.raises(WorkerCrashError, match="died mid-layer"):
                quantize_layers(state, JOBS, **run)
            return
        quantized, _, report = quantize_layers(state, JOBS, **run)
        assert report.worker_deaths == 1 and report.reassignments == 0
        [failure] = report.failures
        assert failure.action == ("skip" if on_error == "skip" else "fp32-fallback")
        assert failure.dropped == (on_error == "skip")
        assert failure.error_type == "WorkerCrashError"
        assert failure.attempts == (3,)
        assert failure.transient_retries == 0
        assert failure.name not in quantized
        _assert_identical(
            quantized, {n: t for n, t in reference.items() if n != failure.name}
        )


class TestDurableChaos:
    def test_death_is_journaled_and_visible_in_status(
        self, state, reference, tmp_path
    ):
        job_dir = tmp_path / "job"
        model = quantize_state_dict(
            state,
            fc_names=FC_NAMES,
            workers=2,
            fault_injector=injector_from_spec("kill-worker:0,slow:0.2"),
            backend="process",
            job=DurableJob(job_dir),
        )
        _assert_identical(model.quantized, reference)
        status = job_status(job_dir)
        assert status.complete
        assert status.worker_deaths == 1
        assert status.broken_leases == 1
        assert not status.active_leases
        rendered = render_status(status)
        assert "1 worker death(s)" in rendered

    def test_chaos_spec_is_inert_on_thread_backend(
        self, state, reference, monkeypatch
    ):
        # The same REPRO_FAULTS spec must not perturb a thread run: worker
        # targeting only matches inside fleet processes.
        monkeypatch.setenv("REPRO_FAULTS", "kill-worker:0,mute-worker:1")
        from repro.testing.faults import injector_from_env

        model = quantize_state_dict(
            state,
            fc_names=FC_NAMES,
            workers=2,
            fault_injector=injector_from_env(),
        )
        _assert_identical(model.quantized, reference)


@pytest.mark.slow
class TestWholeFleetKill:
    """SIGKILL the supervisor itself; resume completes byte-identically."""

    def _env(self, **extra):
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC
        env.pop("REPRO_FAULTS", None)
        env.update(extra)
        return env

    def _quantize_cmd(self, *args):
        return [
            sys.executable, "-m", "repro", "quantize",
            "--config", "tiny-bert-base", "--embedding-bits", "none", *args,
        ]

    def test_kill_whole_fleet_then_resume(self, tmp_path):
        clean = tmp_path / "clean.npz"
        resumed = tmp_path / "resumed.npz"
        job_dir = tmp_path / "job"
        subprocess.run(
            self._quantize_cmd("--out", str(clean)),
            env=self._env(), check=True, capture_output=True,
        )

        proc = subprocess.Popen(
            self._quantize_cmd(
                "--backend", "process", "--workers", "4",
                "--job-dir", str(job_dir), "--out", str(resumed),
            ),
            env=self._env(
                REPRO_FAULTS="slow:0.3",
                REPRO_HEARTBEAT_INTERVAL="0.05",
                REPRO_HEARTBEAT_TIMEOUT="3",
            ),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        journal = job_dir / "journal.jsonl"
        deadline = time.monotonic() + 30
        while not journal.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert journal.exists(), "fleet run never journaled"
        time.sleep(0.8)  # let some layers finish, then die mid-flight
        os.kill(proc.pid, signal.SIGKILL)
        assert proc.wait(timeout=10) == -signal.SIGKILL

        # Orphaned workers notice the supervisor is gone (getppid watch)
        # and exit on their own within a couple of heartbeats.
        time.sleep(1.0)
        status = job_status(job_dir)
        if status.complete:
            pytest.skip("fleet finished before the SIGKILL landed")
        subprocess.run(
            self._quantize_cmd(
                "--backend", "process", "--workers", "4",
                "--job-dir", str(job_dir), "--resume", "--out", str(resumed),
            ),
            env=self._env(REPRO_HEARTBEAT_INTERVAL="0.05"),
            check=True, capture_output=True,
        )
        assert resumed.read_bytes() == clean.read_bytes()
        assert job_status(job_dir).complete
