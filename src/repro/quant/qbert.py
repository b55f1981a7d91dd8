"""Q-BERT-like baseline: group-wise dictionary quantization.

Q-BERT [Shen et al. 2019] splits each layer's weight matrix into groups
(128 per layer gives acceptable accuracy), quantizes each group to its own
dictionary of ``2^bits`` values, and stores weights as indexes.  Embedding
tables are kept at 8 bits to avoid a large accuracy loss.  The original
selects levels with second-order (Hessian) information during fine-tuning;
this reimplementation uses per-group Lloyd clustering, post-training.
Q-BERT's native format — ``bits`` per weight plus 128 dictionaries per layer
— gives Table III's ratios (6.52x at 4 bits, 7.81x at 3 bits with 8-bit
embeddings).  The engine archive joins the dictionaries into one table with
wider codes (see :func:`_qbert_group_method`), so it stores less compactly
than that format.
"""

from __future__ import annotations

import numpy as np

from repro.core.clustering import kmeans_cluster
from repro.core.quantizer import (
    TensorMethodContext,
    TensorMethodResult,
    register_tensor_method,
    single_pass_result,
)
from repro.errors import QuantizationError
from repro.quant.base import EngineBackedQuantizer

#: Q-BERT's group count (128 per layer gives acceptable accuracy, see above).
DEFAULT_NUM_GROUPS = 128


def _qbert_group_method(
    weights: np.ndarray, ctx: TensorMethodContext
) -> TensorMethodResult:
    """Group-wise dictionary quantization as an engine tensor method.

    Splits the flattened weights into ``min(num_groups, size)`` contiguous
    groups (``ctx.aux`` holds ``num_groups`` when it is not
    :data:`DEFAULT_NUM_GROUPS`), clusters each group independently, then
    concatenates the per-group dictionaries into one global centroid table
    with block-offset codes — so the result fits the engine's generic
    packed-codes + centroid-table archive.  ``stored_bits`` widens to cover
    the global code space (up to 15 bits at 128 groups x 2^bits levels), so
    the archive is larger than Q-BERT's native per-group layout.
    """
    flat = np.asarray(weights, dtype=np.float64).ravel()
    num_groups = DEFAULT_NUM_GROUPS if ctx.aux is None else int(ctx.aux)
    if num_groups < 1:
        raise QuantizationError(f"num_groups must be positive, got {num_groups}")
    groups = min(num_groups, flat.size)
    bounds = np.linspace(0, flat.size, groups + 1).round().astype(np.int64)
    centroid_blocks: list[np.ndarray] = []
    assignment = np.empty(flat.size, dtype=np.int64)
    offset = 0
    for g in range(groups):
        lo, hi = int(bounds[g]), int(bounds[g + 1])
        if hi <= lo:
            continue
        result = kmeans_cluster(flat[lo:hi], ctx.bits)
        centroid_blocks.append(result.centroids)
        assignment[lo:hi] = result.assignment + offset
        offset += result.centroids.size
    centroids = np.concatenate(centroid_blocks)
    stored_bits = max(1, int(centroids.size - 1).bit_length())
    clustering = single_pass_result(flat, centroids, assignment)
    return TensorMethodResult(
        outlier_mask=np.zeros(flat.size, dtype=bool),
        clustering=clustering,
        stored_bits=stored_bits,
    )


register_tensor_method("qbert-group", _qbert_group_method)


class QBertQuantizer(EngineBackedQuantizer):
    """Whole-model group-wise dictionary quantization with 8-bit embeddings.

    :meth:`quantize` (inherited) runs the FC layers through the engine as the
    ``"qbert-group"`` tensor method and the embeddings as ``"q8bert-grid"``,
    so Q-BERT models land in format v3 archives like every other method.
    """

    name = "qbert"
    requires_finetuning = True  # the original fine-tunes with Hessian guidance

    def __init__(
        self,
        weight_bits: int = 3,
        num_groups: int = DEFAULT_NUM_GROUPS,
        embedding_bits: int = 8,
    ):
        if not 1 <= weight_bits <= 8:
            raise QuantizationError(f"weight_bits must be in [1, 8], got {weight_bits}")
        if isinstance(num_groups, bool) or not isinstance(num_groups, int) or num_groups < 1:
            raise QuantizationError(f"num_groups must be a positive int, got {num_groups!r}")
        self.weight_bits = weight_bits
        self.num_groups = num_groups
        self.embedding_bits = embedding_bits

    def engine_options(
        self,
        state: dict[str, np.ndarray],
        fc_names: tuple[str, ...],
        embedding_names: tuple[str, ...],
    ) -> dict:
        options = {
            "weight_bits": self.weight_bits,
            "embedding_bits": self.embedding_bits,
            "method": "qbert-group",
            "embedding_method": "q8bert-grid",
        }
        # The group count rides as per-layer aux data, which durable job
        # fingerprints digest.  The default sends none, so 128-group
        # archives and job fingerprints stay what they were.
        if self.num_groups != DEFAULT_NUM_GROUPS:
            options["aux"] = {
                name: np.array(self.num_groups, dtype=np.int64) for name in fc_names
            }
        return options
