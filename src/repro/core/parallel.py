"""Layer-parallel quantization engine with per-layer instrumentation.

GOBO is post-training and per-layer: every FC matrix and embedding table is
quantized independently (Section IV), so whole-model compression is
embarrassingly parallel.  :func:`quantize_layers` fans the per-tensor
:func:`~repro.core.quantizer.quantize_tensor` calls out over a thread pool
and records a :class:`QuantizationReport` — per-layer wall-time, iteration
count, outlier fraction and byte accounting — so quantization-time cost is a
measurable axis (as in Q8BERT and the PTQ surveys), not an invisible one.
All timings come from :mod:`repro.obs` spans (``engine.run``, one
``engine.layer`` per job), and the engine scopes each run so
``report.metrics`` carries a :class:`~repro.obs.metrics.MetricsSnapshot`
even when no trace sink is installed; span context is propagated into the
pool workers so traces nest identically at any worker count (DESIGN.md §5c).

Threads, not processes: a layer's O(n) work (validation, the outlier
split, the sort and prefix sums of its G group, one nearest-centroid
assignment, bit packing) is numpy calls that release the GIL, while each
clustering iteration costs only O(k log n) (:mod:`repro.core.clustering`).
A thread pool shares the weight arrays with zero copies, and ``workers=1``
runs the plain serial loop with no executor at all, preserving the
historical path exactly.  The pool takes the jobs largest first (by element
count, ties in job order), so a big embedding table never starts last while
the other workers idle, and collects them in job order, so a failing run
raises the first failing job's error at any worker count.  A crash of the
process is recovered by the durable journal (``job=``,
:mod:`repro.jobs.runner`): ``--resume`` redoes only the layers that were in
flight.

Because :func:`quantize_tensor` is a pure function of its inputs, the result
is **bit-for-bit identical** for any worker count — the per-job logic lives
in one :class:`JobRunner`.

Worker resolution:

* ``workers=N`` (N >= 1) uses exactly N threads,
* ``workers=0`` uses one thread per CPU this process may run on (its
  affinity mask where the platform has one, else ``os.cpu_count()``),
* ``workers=None`` defers to the ``REPRO_WORKERS`` environment variable
  (default 1) so experiment pipelines can be parallelized without threading
  a parameter through every call site.

Every engine setting resolves this way — argument, else environment
variable, else default — through one table, :data:`SETTINGS`, read by
:func:`resolve`.

Failure isolation (``on_error``): one pathological tensor — zero-variance
weights, NaN/Inf entries — must never abort a whole-model run.  Each job is
attempted in isolation; what happens when it raises is a policy:

* ``"fail"`` (default): re-raise, the historical fail-fast behaviour;
* ``"skip"``: drop the layer from the output entirely;
* ``"fp32-fallback"``: ship the layer unquantized (the PTQ literature's
  per-layer fallback-to-higher-precision knob, taken to FP32);
* ``"retry-higher-bits"``: retry the layer at ``bits+1, bits+2, … 8``; if
  every retry fails, fall back to FP32.

Every non-"fail" outcome is captured as a :class:`LayerFailure` in the
report, so degraded runs are loud in the instrumentation even though they
complete.  ``on_error=None`` defers to the ``REPRO_ON_ERROR`` environment
variable (default ``"fail"``).

Supervision (``layer_timeout`` / ``transient_retries`` / ``cancel``): the
durable-job layer (:mod:`repro.jobs`) runs the engine supervised:

* ``layer_timeout=S`` arms a per-layer :class:`~repro.jobs.watchdog.Deadline`
  (cooperatively checked inside the clustering loop; no thread watches it)
  so a hung or pathologically slow layer becomes a
  ``LayerFailure(action="timeout")`` resolved by the ``on_error`` policy
  instead of stalling the whole run;
* ``transient_retries=N`` re-attempts a layer in place (exponential backoff
  with deterministic jitter) when it fails with a *transient* error — I/O
  errors, injected transient faults — before any ``on_error`` policy fires;
* ``cancel`` (a :class:`threading.Event`) drains the run: layers not yet
  started are left pending (``report.pending``), in-flight layers finish,
  and ``report.interrupted`` is set.  Graceful SIGINT/SIGTERM handling in
  :mod:`repro.jobs.signals` sets this event.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

import numpy as np

from repro.core.formats import BYTES_PER_FP32
from repro.core.outliers import DEFAULT_LOG_PROB_THRESHOLD
from repro.core.quantizer import GoboQuantizedTensor, quantize_tensor
from repro.errors import LayerSkipped, LayerTimeoutError, QuantizationError
from repro.jobs.retry import DEFAULT_BACKOFF_BASE, backoff_delay, is_transient
from repro.jobs.watchdog import Deadline, deadline_scope
from repro.obs import recorder as obs
from repro.obs.metrics import MetricsSnapshot
from repro.utils.tables import format_table

if TYPE_CHECKING:  # the durable runner imports this module
    from repro.jobs.runner import DurableJob

WORKERS_ENV = "REPRO_WORKERS"
ON_ERROR_ENV = "REPRO_ON_ERROR"
LAYER_TIMEOUT_ENV = "REPRO_LAYER_TIMEOUT"
TRANSIENT_RETRIES_ENV = "REPRO_TRANSIENT_RETRIES"
ON_ERROR_POLICIES = ("fail", "skip", "fp32-fallback", "retry-higher-bits")
MAX_RETRY_BITS = 8

# A fault injector is called as ``fault("layer", (index, job.name), weights)``
# before each layer attempt and returns the weights to quantize; it may raise
# (a layer failure) or return a poisoned copy.  See ``repro.testing.faults``.
FaultInjector = Callable[[str, tuple, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class LayerJob:
    """One unit of work for the engine: quantize ``name`` at ``bits``.

    ``method`` optionally overrides the run-wide tensor method for this one
    layer (e.g. Q-BERT quantizes FC layers group-wise but embeddings with a
    symmetric 8-bit grid); ``None`` inherits the run default.
    """

    name: str
    bits: int
    method: str | None = None


@dataclass(frozen=True)
class LayerRecord:
    """Instrumentation for one quantized layer."""

    name: str
    bits: int
    seconds: float
    iterations: int
    converged: bool
    outlier_fraction: float
    original_bytes: int
    compressed_bytes: int

    @property
    def compression_ratio(self) -> float:
        if self.compressed_bytes == 0:
            return float("inf")
        return self.original_bytes / self.compressed_bytes


@dataclass(frozen=True)
class LayerFailure:
    """One layer that did not quantize at its requested bit width.

    ``action`` records how the engine resolved it: ``"skip"`` (dropped),
    ``"fp32-fallback"`` (shipped unquantized), ``"validation-skip"``
    (rejected by the ``skip`` validation policy, shipped unquantized),
    ``"retry-higher-bits"`` (recovered at ``recovered_bits`` — the layer
    *is* quantized, just wider than requested) or ``"timeout"`` (the layer
    blew its per-layer deadline; ``resolution`` records how the ``on_error``
    policy disposed of it — ``"skip"`` or ``"fp32-fallback"``).
    ``attempts`` lists every bit width tried and ``transient_retries`` how
    many in-place transient retries were consumed before the failure stuck.
    """

    name: str
    bits: int
    action: str
    error_type: str
    message: str
    attempts: tuple[int, ...] = ()
    recovered_bits: int | None = None
    resolution: str = ""
    transient_retries: int = 0

    @property
    def quantized_anyway(self) -> bool:
        return self.recovered_bits is not None

    @property
    def dropped(self) -> bool:
        return self.action == "skip" or self.resolution == "skip"


@dataclass
class QuantizationReport:
    """Per-layer instrumentation of one engine run.

    ``wall_seconds`` is the end-to-end fan-out time; ``layer_seconds`` sums
    the per-layer times, so ``layer_seconds / wall_seconds`` is the effective
    parallelism actually achieved.  ``failures`` records every layer that
    needed a degradation policy (empty on a clean run).

    Both timings are read from :mod:`repro.obs` spans (``engine.run`` and
    ``engine.layer``), so the report and an exported trace can never
    disagree.  ``metrics`` is the :class:`~repro.obs.metrics.MetricsSnapshot`
    of every observability event the run produced — available whether or not
    a trace sink was installed.
    """

    workers: int
    wall_seconds: float = 0.0
    layers: list[LayerRecord] = field(default_factory=list)
    failures: list[LayerFailure] = field(default_factory=list)
    on_error: str = "fail"
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)
    layer_timeout: float | None = None
    interrupted: bool = False
    pending: list[str] = field(default_factory=list)
    resumed_layers: int = 0

    @property
    def ok(self) -> bool:
        """True when every layer quantized cleanly at its requested width
        and the run was neither interrupted nor left layers pending."""
        return not self.failures and not self.interrupted and not self.pending

    @property
    def failed_layer_names(self) -> tuple[str, ...]:
        return tuple(failure.name for failure in self.failures)

    @property
    def layer_seconds(self) -> float:
        return sum(record.seconds for record in self.layers)

    @property
    def total_original_bytes(self) -> int:
        return sum(record.original_bytes for record in self.layers)

    @property
    def total_compressed_bytes(self) -> int:
        return sum(record.compressed_bytes for record in self.layers)

    @property
    def compression_ratio(self) -> float:
        if self.total_compressed_bytes == 0:
            return float("inf")
        return self.total_original_bytes / self.total_compressed_bytes

    @property
    def effective_parallelism(self) -> float:
        if self.wall_seconds == 0.0:
            return 1.0
        return self.layer_seconds / self.wall_seconds

    def render(self) -> str:
        """Aligned text table: one row per layer plus a totals footer."""
        rows = [
            [
                record.name,
                record.bits,
                record.iterations,
                f"{record.outlier_fraction * 100:.3f}%",
                f"{record.compressed_bytes / 1024:.1f}",
                f"{record.compression_ratio:.2f}x",
                f"{record.seconds * 1000:.1f}",
            ]
            for record in self.layers
        ]
        table = format_table(
            ["Layer", "Bits", "Iter", "Outlier %", "KiB", "CR", "ms"],
            rows,
            title="Per-layer quantization report",
        )
        footer = (
            f"layers={len(self.layers)} workers={self.workers} "
            f"wall={self.wall_seconds:.3f}s layer-sum={self.layer_seconds:.3f}s "
            f"(effective parallelism {self.effective_parallelism:.2f}x) "
            f"CR={self.compression_ratio:.2f}x"
        )
        if self.resumed_layers:
            footer += f" resumed={self.resumed_layers}"
        if self.interrupted:
            footer += (
                f"\nINTERRUPTED: {len(self.pending)} layer(s) pending: "
                + ", ".join(self.pending)
            )
        if self.failures:
            failure_rows = [
                [
                    failure.name,
                    failure.bits,
                    failure.action,
                    "" if failure.recovered_bits is None else str(failure.recovered_bits),
                    failure.error_type,
                    failure.message[:60],
                ]
                for failure in self.failures
            ]
            failure_table = format_table(
                ["Layer", "Bits", "Action", "Recovered", "Error", "Message"],
                failure_rows,
                title=f"Layer failures (on_error={self.on_error})",
            )
            return f"{table}\n{footer}\n\n{failure_table}"
        return f"{table}\n{footer}"


#: Every engine setting: name -> (environment variable, default, accepted
#: values).  Accepted values are a tuple of choices, ``int`` (a count >= 0;
#: for ``workers``, 0 means every CPU this process may use) or ``float``
#: (seconds > 0).
SETTINGS = {
    "workers": (WORKERS_ENV, 1, int),
    "on_error": (ON_ERROR_ENV, "fail", ON_ERROR_POLICIES),
    "layer_timeout": (LAYER_TIMEOUT_ENV, None, float),
    "transient_retries": (TRANSIENT_RETRIES_ENV, 0, int),
}


def resolve(name: str, value=None):
    """Resolve engine setting ``name`` to a concrete, checked value.

    ``value`` wins when given; ``None`` defers to the setting's environment
    variable, and an unset or empty variable to its default (see
    :data:`SETTINGS`).  A bad value raises
    :class:`~repro.errors.QuantizationError` naming the setting, and the
    variable too when the value came from the environment.
    """
    env, default, accepted = SETTINGS[name]
    where = name
    if value is None:
        raw = os.environ.get(env)
        if not raw:
            return default
        where = f"{name} ({env})"
        value = raw
        if accepted in (int, float):
            try:
                value = accepted(raw)
            except ValueError:
                kind = "an integer" if accepted is int else "a number of seconds"
                raise QuantizationError(f"{where} must be {kind}, got {raw!r}") from None
    if isinstance(accepted, tuple):
        if value not in accepted:
            raise QuantizationError(f"unknown {where} {value!r}; use one of {accepted}")
        return value
    if accepted is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise QuantizationError(f"{where} must be an int or None, got {value!r}")
        if value < 0:
            raise QuantizationError(f"{where} must be >= 0, got {value}")
        if name == "workers" and value == 0:
            # Every CPU this process may run on: its affinity mask (taskset,
            # a cpuset) where the platform has one, not the machine's count.
            if hasattr(os, "sched_getaffinity"):
                return len(os.sched_getaffinity(0))
            return os.cpu_count() or 1
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise QuantizationError(
            f"{where} must be a number of seconds or None, got {value!r}"
        )
    if not value > 0:
        raise QuantizationError(f"{where} must be > 0 seconds, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class LayerOutcome:
    """The final disposition of one job.

    ``tensor`` and ``record`` are set when the layer quantized, ``failure``
    when it needed a degradation policy (both for a layer recovered by
    ``retry-higher-bits``).  ``cancelled`` marks a job that was never
    started because the run was interrupted.
    """

    job: LayerJob
    tensor: GoboQuantizedTensor | None = None
    record: LayerRecord | None = None
    failure: LayerFailure | None = None
    cancelled: bool = False


@dataclass
class JobRunner:
    """Per-job attempt/retry/policy logic.

    One runner holds everything a single :class:`LayerJob` needs to reach
    its final :class:`LayerOutcome`: the weight state, the quantization
    parameters, the ``on_error`` policy, the per-attempt deadline and the
    in-place transient-retry loop.  :func:`quantize_layers` builds one per
    run and calls :meth:`run` from the serial loop or its pool threads — so
    a layer's disposition, and the exact bytes it produces, follow the same
    code path at every worker count.

    Fields must be *resolved* concrete values (use :func:`resolve` first);
    the runner does no environment fallback of its own.
    """

    state: Mapping[str, np.ndarray]
    log_prob_threshold: float = DEFAULT_LOG_PROB_THRESHOLD
    method: str = "gobo"
    max_iterations: int = 50
    on_error: str = "fail"
    validation: str = "strict"
    fault_injector: FaultInjector | None = None
    layer_timeout: float | None = None
    transient_retries: int = 0
    transient_backoff: float = DEFAULT_BACKOFF_BASE
    aux: Mapping[str, np.ndarray] | None = None

    def attempt(
        self, index: int, job: LayerJob, bits: int
    ) -> tuple[GoboQuantizedTensor, LayerRecord]:
        with obs.span("engine.layer", layer=job.name, bits=bits) as layer_span:
            weights = self.state[job.name]
            if self.fault_injector is not None:
                weights = self.fault_injector("layer", (index, job.name), weights)
            tensor, result = quantize_tensor(
                weights,
                bits=bits,
                log_prob_threshold=self.log_prob_threshold,
                method=job.method or self.method,
                max_iterations=self.max_iterations,
                validation=self.validation,
                aux=None if self.aux is None else self.aux.get(job.name),
            )
            original_bytes = tensor.total_count * BYTES_PER_FP32
            compressed_bytes = tensor.storage().compressed_bytes
            layer_span.set(
                iterations=result.iterations,
                converged=result.converged,
                outlier_fraction=tensor.outlier_fraction,
                original_bytes=original_bytes,
                compressed_bytes=compressed_bytes,
            )
        record = LayerRecord(
            name=job.name,
            bits=bits,
            seconds=layer_span.duration,
            iterations=result.iterations,
            converged=result.converged,
            outlier_fraction=tensor.outlier_fraction,
            original_bytes=original_bytes,
            compressed_bytes=compressed_bytes,
        )
        return tensor, record

    def attempt_supervised(
        self, index: int, job: LayerJob, bits: int
    ) -> tuple[GoboQuantizedTensor, LayerRecord]:
        """One attempt under a fresh per-layer deadline (when configured)."""
        if self.layer_timeout is None:
            return self.attempt(index, job, bits)
        with deadline_scope(Deadline(self.layer_timeout, label=job.name)):
            return self.attempt(index, job, bits)

    def attempt_resilient(
        self, index: int, job: LayerJob, bits: int, retries_used: list[int]
    ) -> tuple[GoboQuantizedTensor, LayerRecord]:
        """Attempt with in-place transient retries before any policy fires."""
        retry = 0
        while True:
            try:
                return self.attempt_supervised(index, job, bits)
            except Exception as exc:  # noqa: BLE001 — classified below
                if retry >= self.transient_retries or not is_transient(exc):
                    raise
                obs.counter(
                    "engine.retry",
                    layer=job.name,
                    bits=bits,
                    attempt=retry + 1,
                    error=type(exc).__name__,
                )
                time.sleep(
                    backoff_delay(
                        retry, base=self.transient_backoff, key=f"{job.name}:{bits}"
                    )
                )
                retries_used[0] += 1
                retry += 1

    def run(self, index: int, job: LayerJob) -> LayerOutcome:
        """Resolve one job to its final outcome under the ``on_error`` policy."""
        attempts = [job.bits]
        retries_used = [0]
        try:
            tensor, record = self.attempt_resilient(index, job, job.bits, retries_used)
            return LayerOutcome(job=job, tensor=tensor, record=record)
        except LayerSkipped as exc:
            # The skip validation policy always ships the layer FP32,
            # independent of on_error.
            return self.failed(job, exc, attempts, retries_used[0], "validation-skip")
        except LayerTimeoutError as exc:
            # The layer consumed its whole deadline: never retry it (in place
            # or wider) — that would stall the run all over again.
            obs.counter("engine.timeout", layer=job.name, bits=job.bits)
            return self.failed(job, exc, attempts, retries_used[0], "timeout")
        except Exception as exc:  # noqa: BLE001 — isolation is the point
            if self.on_error == "fail":
                raise
            if self.on_error != "retry-higher-bits":
                return self.failed(job, exc, attempts, retries_used[0], self.on_error)
            for retry_bits in range(job.bits + 1, MAX_RETRY_BITS + 1):
                attempts.append(retry_bits)
                try:
                    tensor, record = self.attempt_resilient(
                        index, job, retry_bits, retries_used
                    )
                except LayerTimeoutError:
                    obs.counter("engine.timeout", layer=job.name, bits=retry_bits)
                    break  # widening further would time out again
                except Exception:  # noqa: BLE001 — keep widening
                    continue
                return self.failed(
                    job, exc, attempts, retries_used[0], "retry-higher-bits",
                    tensor=tensor, record=record, recovered_bits=retry_bits,
                )
            # Every retry failed.
            return self.failed(job, exc, attempts, retries_used[0], "fp32-fallback")

    def failed(
        self,
        job: LayerJob,
        exc: BaseException,
        attempts: Iterable[int],
        retries: int,
        action: str,
        *,
        tensor: GoboQuantizedTensor | None = None,
        record: LayerRecord | None = None,
        recovered_bits: int | None = None,
    ) -> LayerOutcome:
        """The final outcome of ``job`` after ``exc`` stuck.

        ``attempts`` lists every bit width tried and ``retries`` counts the
        in-place transient retries consumed.  A timeout is never retried;
        it is resolved here by ``on_error``: ``"fail"`` raises ``exc``,
        ``"skip"`` drops the layer and any other policy ships it FP32, and
        that resolution is recorded next to the action.  A layer recovered
        wider passes its ``tensor``, ``record`` and ``recovered_bits``.
        """
        resolution = ""
        if action == "timeout":
            if self.on_error == "fail":
                raise exc
            resolution = "skip" if self.on_error == "skip" else "fp32-fallback"
        return LayerOutcome(
            job=job,
            tensor=tensor,
            record=record,
            failure=LayerFailure(
                name=job.name,
                bits=job.bits,
                action=action,
                error_type=type(exc).__name__,
                message=str(exc),
                attempts=tuple(attempts),
                recovered_bits=recovered_bits,
                resolution=resolution,
                transient_retries=retries,
            ),
        )


def quantize_layers(
    state: Mapping[str, np.ndarray],
    jobs: Iterable[LayerJob],
    log_prob_threshold: float = DEFAULT_LOG_PROB_THRESHOLD,
    method: str = "gobo",
    max_iterations: int = 50,
    workers: int | None = 1,
    on_error: str | None = "fail",
    validation: str = "strict",
    fault_injector: FaultInjector | None = None,
    layer_timeout: float | None = None,
    transient_retries: int | None = None,
    transient_backoff: float = DEFAULT_BACKOFF_BASE,
    cancel: "threading.Event | None" = None,
    aux: Mapping[str, np.ndarray] | None = None,
    job: DurableJob | None = None,
) -> tuple[dict[str, GoboQuantizedTensor], dict[str, int], QuantizationReport]:
    """Quantize every job's tensor, optionally fanning out over threads.

    Results are keyed in job order regardless of completion order, and each
    job is an independent pure computation, so the output is bit-for-bit
    identical for every worker count — including runs where some layers fail
    and a degradation policy applies (see module docstring for ``on_error``
    and :mod:`repro.core.validate` for ``validation``).  ``fault_injector``
    is the deterministic test hook used by :mod:`repro.testing.faults`.

    Supervision knobs (see module docstring): ``layer_timeout`` arms a
    deadline per attempt, ``transient_retries`` retries transient
    errors in place with ``transient_backoff``-based exponential backoff,
    and ``cancel`` drains the run leaving unstarted jobs in
    ``report.pending``.

    ``aux`` maps layer names to per-layer side data handed to the tensor
    method (e.g. GWQ's precomputed saliency outlier masks); layers without
    an entry receive ``None``.

    ``job`` (a :class:`repro.jobs.runner.DurableJob`) makes the run durable:
    layers it has journaled are taken from their shards instead of being
    quantized, and each layer that finishes is journaled before the next
    result is collected (an exception while journaling aborts the run —
    durable storage failing is fatal).

    Returns ``(quantized, iterations, report)``; failed layers appear in
    ``report.failures`` instead of ``quantized``.
    """
    jobs = list(jobs)
    missing = [layer.name for layer in jobs if layer.name not in state]
    if missing:
        raise QuantizationError(f"state dict is missing tensors: {missing}")
    workers = resolve("workers", workers)
    runner = JobRunner(
        state=state,
        log_prob_threshold=log_prob_threshold,
        method=method,
        max_iterations=max_iterations,
        on_error=resolve("on_error", on_error),
        validation=validation,
        fault_injector=fault_injector,
        layer_timeout=resolve("layer_timeout", layer_timeout),
        transient_retries=resolve("transient_retries", transient_retries),
        transient_backoff=transient_backoff,
        aux=aux,
    )
    done = {} if job is None else job.open(jobs, runner)
    # Journaled layers are not run again; the rest are numbered afresh.
    indexed = list(enumerate(layer for layer in jobs if layer.name not in done))
    record_lock = threading.Lock()

    with obs.scope() as scoped:
        # The workers gauge is the one event whose payload legitimately
        # differs between otherwise identical runs at different worker
        # counts; determinism comparisons exclude it by name (DESIGN §5c).
        obs.gauge("engine.workers", workers)
        obs.gauge("engine.queue.jobs", len(indexed))
        with obs.span("engine.run") as engine_span:
            # Worker threads re-attach the submitting thread's span context,
            # so layer spans nest under engine.run at any worker count.
            context = obs.capture_context()

            def run_in_context(item: tuple[int, LayerJob]) -> LayerOutcome:
                with obs.use_context(context):
                    if cancel is not None and cancel.is_set():
                        return LayerOutcome(job=item[1], cancelled=True)
                    outcome = runner.run(*item)
                    if job is not None:
                        with record_lock:
                            job.record(outcome)
                    return outcome

            if workers == 1 or len(indexed) <= 1:
                outcomes = [run_in_context(item) for item in indexed]
            else:
                # Submitted largest first, so no big layer starts last while
                # the other workers idle; collected in job order, so a run
                # that fails raises the first failing job's error, as the
                # serial loop does.
                largest_first = sorted(
                    indexed, key=lambda item: np.size(state[item[1].name]), reverse=True
                )
                with ThreadPoolExecutor(max_workers=min(workers, len(indexed))) as pool:
                    futures = {
                        item[0]: pool.submit(run_in_context, item) for item in largest_first
                    }
                    outcomes = [futures[index].result() for index, _ in indexed]

        report = QuantizationReport(
            workers=workers,
            wall_seconds=engine_span.duration,
            on_error=runner.on_error,
            layer_timeout=runner.layer_timeout,
            resumed_layers=len(done),
        )
        # Merge journaled layers back in job order, so the assembled dicts —
        # and therefore an archive's member order and bytes — match an
        # uninterrupted run exactly.
        fresh = {outcome.job.name: outcome for outcome in outcomes}
        quantized: dict[str, GoboQuantizedTensor] = {}
        iterations: dict[str, int] = {}
        for layer in jobs:
            outcome = fresh.get(layer.name) or done[layer.name]
            if outcome.cancelled:
                report.pending.append(layer.name)
                continue
            if outcome.record is not None and outcome.tensor is not None:
                quantized[layer.name] = outcome.tensor
                iterations[layer.name] = outcome.record.iterations
                report.layers.append(outcome.record)
            if outcome.failure is not None:
                report.failures.append(outcome.failure)
        # A cancellation that arrived after every job had already started
        # drained to a complete run; only unstarted work marks the run
        # interrupted.
        report.interrupted = bool(report.pending)
        obs.counter(
            "engine.layers.quantized", sum(o.record is not None for o in outcomes)
        )
        degraded = sum(o.failure is not None for o in outcomes)
        if degraded:
            obs.counter("engine.layers.degraded", degraded)
        if report.pending:
            obs.counter("engine.layers.cancelled", len(report.pending))
    report.metrics = scoped.snapshot()
    if job is not None:
        job.close(report)
    return quantized, iterations, report
