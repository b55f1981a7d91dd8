"""Roofline latency model for BERT inference with compressed weights.

Per FC layer, a batch-1 inference performs ``2 * rows * cols * seq`` FLOPs
while streaming the layer's weights from DRAM once (the hidden state is tiny
— Table II — and stays on chip).  Layer time is the roofline maximum of the
compute time and the weight-streaming time; model latency is the sum over
layers.  GOBO shrinks the streamed bytes by its compression ratio, so on
memory-bound machines latency falls almost proportionally — the paper's
"low latency" argument made quantitative.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.spec import HardwareSpec
from repro.models.config import BertConfig
from repro.models.footprint import BYTES_PER_FP32
from repro.models.zoo import fc_layer_shapes


@dataclass(frozen=True)
class LatencyReport:
    """Latency breakdown of one inference."""

    model: str
    hardware: str
    sequence_length: int
    compute_seconds: float
    memory_seconds: float
    latency_seconds: float
    memory_bound_layers: int
    total_layers: int

    @property
    def memory_bound_fraction(self) -> float:
        if self.total_layers == 0:
            return 0.0
        return self.memory_bound_layers / self.total_layers


def inference_latency(
    config: BertConfig,
    hardware: HardwareSpec,
    sequence_length: int = 128,
    effective_weight_bits: float = 32.0,
) -> LatencyReport:
    """Roofline latency of one batch-1 inference.

    ``effective_weight_bits`` models the streamed weight width: 32 for FP32,
    ~3.07 for GOBO 3-bit (indexes + outlier/table overhead).  Decompression
    is assumed hidden behind the stream (a table lookup per weight), matching
    GOBO's decode-on-the-fly usage.
    """
    if sequence_length <= 0:
        raise ValueError(f"sequence_length must be positive, got {sequence_length}")
    if effective_weight_bits <= 0:
        raise ValueError(f"effective_weight_bits must be positive, got {effective_weight_bits}")
    compute_total = 0.0
    memory_total = 0.0
    latency_total = 0.0
    memory_bound = 0
    layers = fc_layer_shapes(config)
    for _, (rows, cols) in layers:
        flops = 2.0 * rows * cols * sequence_length
        weight_bytes = rows * cols * effective_weight_bits / 8.0
        compute_time = flops / hardware.flops_per_second
        memory_time = weight_bytes / hardware.dram_bytes_per_second
        compute_total += compute_time
        memory_total += memory_time
        latency_total += max(compute_time, memory_time)
        if memory_time > compute_time:
            memory_bound += 1
    return LatencyReport(
        model=config.name,
        hardware=hardware.name,
        sequence_length=sequence_length,
        compute_seconds=compute_total,
        memory_seconds=memory_total,
        latency_seconds=latency_total,
        memory_bound_layers=memory_bound,
        total_layers=len(layers),
    )


def gobo_speedup(
    config: BertConfig,
    hardware: HardwareSpec,
    sequence_length: int = 128,
    effective_weight_bits: float = 3.07,
) -> float:
    """Latency ratio FP32 / GOBO-compressed on ``hardware``."""
    baseline = inference_latency(config, hardware, sequence_length, 32.0)
    compressed = inference_latency(
        config, hardware, sequence_length, effective_weight_bits
    )
    return baseline.latency_seconds / compressed.latency_seconds
