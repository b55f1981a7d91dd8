"""Sensitivity-driven mixed-precision bit allocation under a footprint budget.

Section V of the paper hand-picks a mixed 3b/4b policy for RoBERTa from a
per-layer sensitivity scan.  This module automates that judgment: run the
data-free reconstruction-sensitivity scan
(:func:`repro.experiments.sensitivity.reconstruction_sensitivity_scan`) over
every FC layer, then allocate per-layer bit widths greedily — every layer
starts at the narrowest candidate width, and the single upgrade with the
best error-reduction-per-byte is applied repeatedly until the global byte
budget is exhausted.  The result is a
:class:`~repro.core.policy.LayerPolicy`, so the allocation flows through the
unchanged engine/jobs/serialization stack exactly like the paper's
hand-written recipe.

The budget is expressed as a percentage of the FP32 footprint of the FC
weights (``budget_pct=12`` keeps the quantized FC layers under 12% of their
FP32 bytes, i.e. a guaranteed >= 8.3x compression on those layers).
"""

from __future__ import annotations

import re

import numpy as np

from repro.core.formats import BYTES_PER_FP32
from repro.core.policy import LayerPolicy, PolicyRule
from repro.errors import QuantizationError
from repro.quant.base import EngineBackedQuantizer

DEFAULT_BUDGET_PCT = 12.0
DEFAULT_CANDIDATES = (2, 3, 4, 5)


def allocate_bits(
    state: dict[str, np.ndarray],
    layer_names: tuple[str, ...],
    budget_pct: float = DEFAULT_BUDGET_PCT,
    candidates: tuple[int, ...] = DEFAULT_CANDIDATES,
) -> dict[str, int]:
    """Greedy error-per-byte bit allocation; returns ``{layer: bits}``.

    Deterministic: upgrades are ranked by error reduction per extra byte
    with ties broken by layer name, so the same state dict always yields
    the same allocation (and therefore the same archive bytes).
    """
    # Lazy import: repro.experiments pulls the training/data stack, which
    # repro.quant must not require at import time.
    from repro.experiments.sensitivity import reconstruction_sensitivity_scan

    if not layer_names:
        return {}
    widths = tuple(sorted(set(candidates)))
    if not widths:
        raise QuantizationError("mixed-precision allocation needs candidate widths")
    scan = reconstruction_sensitivity_scan(state, layer_names, widths)
    budget_bytes = (
        budget_pct
        / 100.0
        * sum(int(np.asarray(state[name]).size) * BYTES_PER_FP32 for name in layer_names)
    )
    allocation = {name: widths[0] for name in layer_names}
    total = sum(scan[name][widths[0]].compressed_bytes for name in layer_names)
    if total > budget_bytes:
        raise QuantizationError(
            f"budget of {budget_pct:g}% cannot fit even the {widths[0]}-bit floor "
            f"({total} bytes needed, {budget_bytes:.0f} allowed); raise the budget"
        )
    while True:
        best = None  # (error_drop_per_byte, -extra_bytes, name, next_bits)
        for name in sorted(layer_names):
            current = allocation[name]
            index = widths.index(current)
            if index + 1 == len(widths):
                continue
            upgrade = widths[index + 1]
            extra = (
                scan[name][upgrade].compressed_bytes
                - scan[name][current].compressed_bytes
            )
            if total + extra > budget_bytes:
                continue
            drop = scan[name][current].squared_error - scan[name][upgrade].squared_error
            gain = drop / extra if extra > 0 else float("inf")
            if best is None or gain > best[0]:
                best = (gain, extra, name, upgrade)
        if best is None:
            return allocation
        _, extra, name, upgrade = best
        allocation[name] = upgrade
        total += extra


def allocation_policy(allocation: dict[str, int], default_bits: int) -> LayerPolicy:
    """Wrap an allocation in a LayerPolicy with exact-match rules."""
    rules = tuple(
        PolicyRule(pattern=f"^{re.escape(name)}$", bits=bits)
        for name, bits in sorted(allocation.items())
    )
    return LayerPolicy(default_bits=default_bits, rules=rules)


class MixedBitsQuantizer(EngineBackedQuantizer):
    """GOBO with per-layer bit widths allocated under a global budget."""

    requires_finetuning = False

    def __init__(
        self,
        budget_pct: float = DEFAULT_BUDGET_PCT,
        candidates: tuple[int, ...] = DEFAULT_CANDIDATES,
        embedding_bits: int | None = 4,
    ) -> None:
        if not 0.0 < budget_pct <= 100.0:
            raise QuantizationError(
                f"budget_pct must be in (0, 100], got {budget_pct}"
            )
        self.budget_pct = budget_pct
        self.candidates = tuple(sorted(set(candidates)))
        if not self.candidates:
            raise QuantizationError("candidates must be non-empty")
        self.embedding_bits = embedding_bits
        self.name = f"mixed-{budget_pct:g}pct"

    def allocate(
        self, state: dict[str, np.ndarray], fc_names: tuple[str, ...]
    ) -> dict[str, int]:
        """The per-layer bit allocation this quantizer would apply."""
        return allocate_bits(state, fc_names, self.budget_pct, self.candidates)

    def engine_options(
        self,
        state: dict[str, np.ndarray],
        fc_names: tuple[str, ...],
        embedding_names: tuple[str, ...],
    ) -> dict:
        allocation = self.allocate(state, fc_names)
        return {
            "weight_bits": allocation_policy(allocation, self.candidates[0]),
            "embedding_bits": self.embedding_bits,
            "method": "gobo",
        }
