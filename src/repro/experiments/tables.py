"""Reproduction of the paper's Tables I-VII.

Each ``table*`` function returns a :class:`TableResult` whose rows mirror the
corresponding table in the paper.  Accuracy cells come from the fine-tuned
tiny models, scored through the serving forward (see
:mod:`repro.experiments.accuracy`); compression-ratio cells
are computed at the *real* model dimensions via byte-accurate storage
accounting over full-scale synthetic weights, so they are directly comparable
with the paper's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from repro.core.formats import potential_compression_ratio, storage_report
from repro.core.model_quantizer import quantize_model, select_parameters
from repro.core.outliers import OutlierDetector
from repro.core.parallel import QuantizationReport
from repro.core.policy import mixed_precision_policy
from repro.experiments.accuracy import (
    error_vs_baseline,
    get_finetuned,
    quantized_score,
    serving_score,
)
from repro.models import get_config
from repro.models.config import BertConfig
from repro.models.footprint import (
    BYTES_PER_FP32,
    MIB,
    architecture_table,
    embedding_table_count,
    fc_weight_count,
    memory_footprint,
    total_parameter_count,
)
from repro.models.zoo import build_model, fc_layer_shapes, synthetic_model_weights
from repro.utils.tables import format_table


@dataclass
class TableResult:
    """A rendered-table payload: title, headers, and rows."""

    title: str
    headers: list[str]
    rows: list[list]

    def render(self, float_fmt: str = "{:.2f}") -> str:
        return format_table(self.headers, self.rows, title=self.title, float_fmt=float_fmt)


# ---------------------------------------------------------------------------
# Full-scale storage accounting helpers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def measured_outlier_fractions(config_name: str, include_embeddings: bool = False):
    """Per-layer outlier fractions of full-scale synthetic weights.

    Only the Gaussian fit and log-pdf run per layer (no clustering), so this
    is cheap even at BERT-Large scale.  Results are cached per config.
    """
    config = get_config(config_name)
    detector = OutlierDetector()
    fractions: dict[str, float] = {}
    for name, weights in synthetic_model_weights(
        config, rng=0, include_embeddings=include_embeddings
    ):
        fractions[name] = detector.split(weights).outlier_fraction
    return fractions


def gobo_model_bytes(
    config: BertConfig,
    weight_bits: int,
    embedding_bits: int | None,
    outlier_fraction: float = 0.001,
) -> int:
    """GOBO-compressed byte size of a full-scale model (weights + word table)."""
    total = 0
    for _, shape in fc_layer_shapes(config):
        count = shape[0] * shape[1]
        outliers = int(round(count * outlier_fraction))
        total += storage_report(count, outliers, weight_bits).compressed_bytes
    if embedding_bits is not None:
        count = embedding_table_count(config)
        outliers = int(round(count * outlier_fraction))
        total += storage_report(count, outliers, embedding_bits).compressed_bytes
    return total


def fp32_model_bytes(config: BertConfig, include_embeddings: bool = True) -> int:
    """FP32 byte size of the tensors the quantizers touch."""
    total = fc_weight_count(config) * BYTES_PER_FP32
    if include_embeddings:
        total += embedding_table_count(config) * BYTES_PER_FP32
    return total


def qbert_model_bytes(config: BertConfig, weight_bits: int, num_groups: int = 128) -> int:
    """Q-BERT-like compressed size: per-group dictionaries + 8-bit embeddings."""
    total = 0
    for _, shape in fc_layer_shapes(config):
        count = shape[0] * shape[1]
        total += count * weight_bits // 8
        total += num_groups * (1 << weight_bits) * BYTES_PER_FP32
    total += embedding_table_count(config)  # 8-bit embeddings: 1 byte each
    return total


def q8bert_model_bytes(config: BertConfig) -> int:
    """Q8BERT compressed size: 8-bit weights and embeddings."""
    return (fc_weight_count(config) + embedding_table_count(config)) * 1


#: Gaussian mass outside mean±3σ — the zero-shot grid's clip (= outlier) rate.
ZEROSHOT_CLIP_FRACTION = math.erfc(3.0 / math.sqrt(2.0))


def zeroshot_model_bytes(config: BertConfig, bits: int = 8) -> int:
    """Zero-shot dynamic compressed size (uniform mean±3σ grid, all tensors).

    Weights and embeddings share the same width; the clipped tail (~0.27% of
    a Gaussian) is stored FP32, exactly like GOBO outliers.
    """
    total = 0
    for _, shape in fc_layer_shapes(config):
        count = shape[0] * shape[1]
        outliers = int(round(count * ZEROSHOT_CLIP_FRACTION))
        total += storage_report(count, outliers, bits).compressed_bytes
    count = embedding_table_count(config)
    outliers = int(round(count * ZEROSHOT_CLIP_FRACTION))
    total += storage_report(count, outliers, bits).compressed_bytes
    return total


def zoo_model_bytes(config: BertConfig, spec: str, outlier_fraction: float) -> int:
    """Full-scale compressed byte size for any registered method spec.

    ``outlier_fraction`` is the measured GOBO split rate (used for the
    Gaussian-split families); saliency-ranked (gwq) and clip-based (zeroshot)
    families carry their own rates inside the spec.
    """
    from repro.quant.registry import parse_spec

    family, values = parse_spec(spec)
    if family.name == "q8bert":
        return q8bert_model_bytes(config)
    if family.name == "qbert":
        return qbert_model_bytes(config, values["bits"])
    if family.name == "gobo":
        return gobo_model_bytes(config, values["bits"], 4, outlier_fraction)
    if family.name == "zeroshot":
        return zeroshot_model_bytes(config, values["bits"])
    if family.name == "gwq":
        # GWQ keeps exactly pct% FP32 by saliency rank; same container as GOBO.
        return gobo_model_bytes(config, values["bits"], 4, values["pct"] / 100.0)
    if family.name == "mixed":
        # The allocator guarantees the FC footprint stays under the budget;
        # embeddings ride along as GOBO 4-bit.
        fc_budget = fc_weight_count(config) * BYTES_PER_FP32 * values["pct"] / 100.0
        count = embedding_table_count(config)
        outliers = int(round(count * outlier_fraction))
        return int(fc_budget) + storage_report(count, outliers, 4).compressed_bytes
    raise ValueError(f"no full-scale byte model for method family {family.name!r}")


# ---------------------------------------------------------------------------
# Table I / II — architecture and footprint
# ---------------------------------------------------------------------------


def table1_architecture(config_names: tuple[str, ...] = ("bert-base", "bert-large")):
    """Table I: BERT layer counts and per-component FC dimensions."""
    rows = []
    for name in config_names:
        config = get_config(name)
        for spec in architecture_table(config):
            rows.append(
                [
                    config.name,
                    config.num_layers,
                    spec.component,
                    f"{spec.count_per_layer}x",
                    f"{spec.rows} x {spec.cols}",
                ]
            )
        rows.append(
            [config.name, config.num_layers, "Total FC layers", "", config.num_fc_layers]
        )
        rows.append(
            [config.name, config.num_layers, "Total parameters", "",
             f"{total_parameter_count(config) / 1e6:.0f}M"]
        )
    return TableResult(
        title="Table I: BERT Architecture",
        headers=["Model", "BERT layers", "Component", "FC #", "Dimensions"],
        rows=rows,
    )


def table2_footprint(
    config_names: tuple[str, ...] = ("bert-base", "bert-large"),
    sequence_length: int = 128,
):
    """Table II: memory footprint (embeddings, weights, activations)."""
    rows = []
    for name in config_names:
        fp = memory_footprint(get_config(name), sequence_length)
        rows.append(
            [
                fp.model,
                f"{fp.embedding_mib:.2f} MB",
                f"{fp.weight_mib:.2f} MB",
                f"{fp.input_bytes_per_word // 1024} KB",
                f"{fp.largest_act_bytes_per_word // 1024} KB",
                fp.sequence_length,
                f"{fp.activation_mib:.1f} MB",
            ]
        )
    return TableResult(
        title="Table II: BERT Memory Footprint",
        headers=[
            "Model",
            "Embedding Tables",
            "Weights",
            "Input/Word",
            "Largest Acts/Word",
            "Seq Len",
            "Activations",
        ],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Table III — method comparison on MNLI / BERT-Base
# ---------------------------------------------------------------------------


#: Table III's method column, by quantizer name.
_TABLE3_LABELS = {"q8bert": "Q8BERT", "qbert": "Q-BERT", "gobo": "GOBO"}


def _scored_specs(full_scale_model: str, use_cache: bool, specs: tuple[str, ...]):
    """Score every spec on MNLI: ``(baseline, inputs, scored)``.

    Each spec's quantizer compresses the fine-tuned tiny stand-in through
    ``quantize``, and the result is scored through the serving forward
    (:func:`~repro.experiments.accuracy.serving_score`).  ``inputs`` are the
    quantizers' ``(state, fc_names, embedding_names)`` arguments, and
    ``scored`` holds ``(quantizer, score, ratio)`` per spec, the ratio
    computed at the real model dimensions via :func:`zoo_model_bytes`.
    """
    from repro.quant.registry import build_quantizer

    config = get_config(full_scale_model)
    finetuned = get_finetuned(full_scale_model, "mnli", use_cache=use_cache)
    fp32_bytes = fp32_model_bytes(config)
    outlier_fraction = _average_outlier_fraction(full_scale_model)
    selection = select_parameters(finetuned.model)
    inputs = (finetuned.model.state_dict(), selection.fc_names, selection.embedding_names)
    scored = []
    for spec in specs:
        quantizer = build_quantizer(spec)
        score = serving_score(finetuned, quantizer.quantize(*inputs))
        ratio = fp32_bytes / zoo_model_bytes(config, spec, outlier_fraction)
        scored.append((quantizer, score, ratio))
    return finetuned.baseline_score, inputs, scored


def table3_method_comparison(full_scale_model: str = "bert-base", use_cache: bool = True):
    """Table III: GOBO vs Q8BERT vs Q-BERT on MNLI (accuracy + real-scale CR).

    The zoo table's loop over :data:`~repro.quant.registry.TABLE3_SPECS`,
    with the paper's Weights, Embedding and No Fine-tuning columns.
    """
    from repro.quant.registry import TABLE3_SPECS

    baseline, inputs, scored = _scored_specs(full_scale_model, use_cache, TABLE3_SPECS)
    rows = [["Baseline", "FP32", "FP32", _pct(baseline), "-", "-", "1.00x"]]
    for quantizer, score, ratio in scored:
        options = quantizer.engine_options(*inputs)
        rows.append(
            [_TABLE3_LABELS[quantizer.name], f"{options['weight_bits']}-bit",
             f"{options['embedding_bits']}-bit", _pct(score),
             _pct(error_vs_baseline(baseline, score)),
             "no" if quantizer.requires_finetuning else "yes", f"{ratio:.2f}x"]
        )
    return TableResult(
        title=f"Table III: Quantization Methods, {full_scale_model} on MNLI",
        headers=["Method", "Weights", "Embedding", "Accuracy (m)", "Error",
                 "No Fine-tuning", "Compression Ratio"],
        rows=rows,
    )


def table3_method_zoo(
    full_scale_model: str = "bert-base",
    use_cache: bool = True,
    specs: tuple[str, ...] | None = None,
) -> TableResult:
    """Table III extended to every registered method spec.

    One row per spec in :func:`repro.quant.registry.available_specs` — the
    paper's lineup plus the post-training zoo (zero-shot dynamic,
    gradient-aware outliers, mixed-precision allocation).  Accuracy is
    measured on the fine-tuned tiny stand-in through the serving forward;
    compression ratios are computed at the real model dimensions via
    :func:`zoo_model_bytes`.  A method registered through the registry lands
    here with no further wiring.
    """
    from repro.quant.registry import available_specs

    specs = specs if specs is not None else available_specs()
    baseline, _, scored = _scored_specs(full_scale_model, use_cache, specs)
    rows = [["Baseline", _pct(baseline), "-", "1.00x"]]
    for spec, (_, score, ratio) in zip(specs, scored):
        rows.append(
            [spec, _pct(score), _pct(error_vs_baseline(baseline, score)),
             f"{ratio:.2f}x"]
        )
    return TableResult(
        title=f"Table III (zoo): All registered methods, {full_scale_model} on MNLI",
        headers=["Spec", "Accuracy (m)", "Error", "Compression Ratio"],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Tables IV-VI — centroid-selection policies per model/task
# ---------------------------------------------------------------------------


def centroid_policy_table(
    model_name: str,
    task: str,
    bits_list: tuple[int, ...] = (2, 3, 4, 5),
    policies: tuple[str, ...] = ("linear", "kmeans", "gobo"),
    use_cache: bool = True,
    mixed_rows: bool = False,
) -> TableResult:
    """The Table IV/V/VI layout for one (model, task) pair.

    ``mixed_rows=True`` adds the RoBERTa-style 3b/4b mixed-precision row.
    """
    finetuned = get_finetuned(model_name, task, use_cache=use_cache)
    baseline = finetuned.baseline_score
    rows = [[32, "baseline"] + [_pct(baseline), "-"] + [potential_compression_ratio_str(32)]]
    for bits in bits_list:
        for policy in policies:
            score = quantized_score(finetuned, bits, None, method=policy)
            rows.append(
                [bits, policy, _pct(score), _pct(error_vs_baseline(baseline, score)),
                 potential_compression_ratio_str(bits)]
            )
    if mixed_rows:
        config = get_config(finetuned.config_name)
        sensitive = max(1, round(config.num_layers / 2))
        policy = mixed_precision_policy(sensitive, sensitive_bits=4, default_bits=3)
        score = quantized_score(finetuned, policy, None, method="gobo")
        rows.append(
            ["3b/4b", "gobo-mixed", _pct(score), _pct(error_vs_baseline(baseline, score)),
             f"~{32 / 3.3:.2f}x"]
        )
    return TableResult(
        title=f"Centroid selection policies: {model_name} on {task.upper()} "
              f"(evaluated on {finetuned.config_name})",
        headers=["Bits", "Policy", "Score", "Error", "Potential CR"],
        rows=rows,
    )


def table4_bert(use_cache: bool = True) -> list[TableResult]:
    """Table IV: MNLI + STS-B on BERT-Base, SQuAD on BERT-Large."""
    return [
        centroid_policy_table("bert-base", "mnli", (2, 3, 4, 5, 6), use_cache=use_cache),
        centroid_policy_table("bert-base", "stsb", (2, 3, 4, 5), use_cache=use_cache),
        centroid_policy_table("bert-large", "squad", (2, 3, 4, 5, 6, 7), use_cache=use_cache),
    ]


def table5_distilbert(use_cache: bool = True) -> TableResult:
    """Table V: DistilBERT on MNLI (K-Means vs GOBO)."""
    return centroid_policy_table(
        "distilbert", "mnli", (3, 4, 5), policies=("kmeans", "gobo"), use_cache=use_cache
    )


def table6_roberta(use_cache: bool = True) -> list[TableResult]:
    """Table VI: RoBERTa and RoBERTa-Large on MNLI incl. mixed 3b/4b rows."""
    return [
        centroid_policy_table(
            "roberta-base", "mnli", (3, 4, 5), policies=("kmeans", "gobo"),
            use_cache=use_cache, mixed_rows=True,
        ),
        centroid_policy_table(
            "roberta-large", "mnli", (3, 4, 5), policies=("kmeans", "gobo"),
            use_cache=use_cache, mixed_rows=True,
        ),
    ]


# ---------------------------------------------------------------------------
# Table VII — embedding table compression
# ---------------------------------------------------------------------------

_TABLE7_MODELS = (
    ("bert-base", "MNLI"),
    ("bert-large", "SQuAD v1.1"),
    ("distilbert", "MNLI"),
    ("roberta-base", "MNLI"),
    ("roberta-large", "MNLI"),
)


def table7_embeddings(outlier_fraction: float = 0.001) -> TableResult:
    """Table VII: word-embedding table size and CR at 3 and 4 bits."""
    rows = []
    for model_name, task in _TABLE7_MODELS:
        config = get_config(model_name)
        count = embedding_table_count(config)
        outliers = int(round(count * outlier_fraction))
        fp32_mib = count * BYTES_PER_FP32 / MIB
        cells = [f"{model_name}/{task}", f"{fp32_mib:.2f} MB"]
        for bits in (3, 4):
            report = storage_report(count, outliers, bits)
            cells.append(f"{report.compressed_bytes / MIB:.2f} MB")
            cells.append(f"{report.compression_ratio:.2f}x")
        rows.append(cells)
    return TableResult(
        title="Table VII: Embedding size (MB) and compression ratio",
        headers=["Model/Task", "Baseline FP32", "3-bit", "CR", "4-bit", "CR"],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# quantization-engine instrumentation
# ---------------------------------------------------------------------------


def engine_report(workers: int | None = None) -> QuantizationReport:
    """Per-layer quantization cost on the tiny zoo BERT.

    Runs the layer-parallel engine over every FC matrix and embedding table
    and returns its :class:`~repro.core.parallel.QuantizationReport`
    (wall-time, iterations, outlier fraction and bytes per layer) — the
    quantization-time axis Q8BERT and the PTQ surveys treat as first-class.
    ``workers=None`` defers to the ``REPRO_WORKERS`` environment default.
    """
    model = build_model(get_config("tiny-bert-base"), task="encoder", rng=0)
    quantized = quantize_model(model, weight_bits=3, embedding_bits=4, workers=workers)
    return quantized.report


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _pct(value: float) -> str:
    return f"{value * 100:.2f}%"


def potential_compression_ratio_str(bits: int) -> str:
    return f"{potential_compression_ratio(bits):.2f}x"


@lru_cache(maxsize=8)
def _average_outlier_fraction(config_name: str) -> float:
    fractions = measured_outlier_fractions(config_name)
    config = get_config(config_name)
    weights = {name: shape[0] * shape[1] for name, shape in fc_layer_shapes(config)}
    total = sum(weights.values())
    return sum(fractions[name] * weights[name] for name in fractions) / total
