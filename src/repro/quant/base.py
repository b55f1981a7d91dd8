"""Common base for whole-model weight quantizers.

Every method — the paper's baselines, GOBO itself (via an adapter) and the
post-training zoo — is an :class:`EngineBackedQuantizer`: it names its
tensor method, bit widths and per-layer side data in
:meth:`~EngineBackedQuantizer.engine_options`, and
:meth:`~EngineBackedQuantizer.quantize` runs them through the layer engine
into a :class:`~repro.core.model_quantizer.QuantizedModel`.  That one result
feeds archives, durable jobs, serving and the accuracy tables, which score
it through the compressed-inference forward
(:func:`repro.experiments.accuracy.serving_score`).
"""

from __future__ import annotations

import numpy as np


class EngineBackedQuantizer:
    """Base for quantizers that run through the layer-parallel engine.

    Subclasses implement :meth:`engine_options` — the keyword arguments that
    pick their tensor method, bit widths and any per-layer side data — and
    inherit a full-featured :meth:`quantize` (deterministic, durable,
    fault-policy-aware).  Everything downstream of the engine (serialization
    format v3, jobs, serving, the tables) works unchanged for every subclass.
    """

    name: str = "engine"
    requires_finetuning: bool = False

    def engine_options(
        self,
        state: dict[str, np.ndarray],
        fc_names: tuple[str, ...],
        embedding_names: tuple[str, ...],
    ) -> dict:
        """Keyword arguments for ``quantize_state_dict`` (method, bits, aux)."""
        raise NotImplementedError

    def quantize(
        self,
        state: dict[str, np.ndarray],
        fc_names: tuple[str, ...],
        embedding_names: tuple[str, ...] = (),
        *,
        workers: int | None = None,
        on_error: str | None = "fail",
        validation: str = "strict",
        fault_injector=None,
        layer_timeout: float | None = None,
        transient_retries: int | None = None,
        cancel=None,
        job=None,
    ):
        """Run this method through the engine, returning a ``QuantizedModel``.

        ``job`` (a :class:`repro.jobs.runner.DurableJob`) makes the run
        durable and resumable, as for ``quantize_state_dict``.
        """
        # Lazy import: repro.quant must stay importable without dragging in
        # the whole engine (plug-in tensor-method modules import the other way).
        from repro.core.model_quantizer import quantize_state_dict

        options = self.engine_options(state, fc_names, embedding_names)
        return quantize_state_dict(
            state,
            fc_names=fc_names,
            embedding_names=embedding_names,
            workers=workers,
            on_error=on_error,
            validation=validation,
            fault_injector=fault_injector,
            layer_timeout=layer_timeout,
            transient_retries=transient_retries,
            cancel=cancel,
            job=job,
            **options,
        )
