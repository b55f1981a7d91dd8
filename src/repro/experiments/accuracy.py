"""Accuracy experiments: fine-tune tiny models, quantize, re-evaluate.

This is the engine behind Tables III-VI and Figure 4.  Each (model, task)
pair is fine-tuned once (checkpoint cached on disk) and then evaluated under
every quantization configuration an experiment asks for — mirroring the
paper's workflow, where one fine-tuned checkpoint feeds all quantization
variants because GOBO needs no retraining.  Every quantized score comes from
:func:`serving_score`: the forward ``repro serve`` runs, computing on the
compressed FC weights and embedding tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.core.model_quantizer import QuantizedModel, quantize_model
from repro.core.policy import LayerPolicy
from repro.data import generate_mnli, generate_squad, generate_stsb
from repro.data.task import TaskSplits
from repro.experiments import cache
from repro.models import (
    TINY_COUNTERPART,
    attach_quantized_linears,
    build_model,
    get_config,
)
from repro.nn.module import Module
from repro.training import Trainer, evaluate

DATA_SEED = 0
MODEL_SEED = 1
TRAIN_SEED = 2


@dataclass(frozen=True)
class TrainRecipe:
    """Fine-tuning hyperparameters for one task."""

    task: str
    head: str
    num_labels: int
    num_train: int
    num_eval: int
    epochs: int
    lr: float
    batch_size: int = 32


RECIPES = {
    "mnli": TrainRecipe("mnli", "classification", 3, 3500, 800, 7, 1e-3),
    # STS-B needs more epochs than the classification tasks: the regression
    # head must average away the training-time embedding noise.
    "stsb": TrainRecipe("stsb", "regression", 0, 3000, 800, 10, 1e-3),
    "squad": TrainRecipe("squad", "span", 0, 3500, 800, 6, 1e-3),
}

_GENERATORS = {
    "mnli": generate_mnli,
    "stsb": generate_stsb,
    "squad": generate_squad,
}


@lru_cache(maxsize=8)
def task_splits(task: str) -> TaskSplits:
    """Deterministic train/eval splits for ``task`` (cached in-process)."""
    recipe = RECIPES[task]
    return _GENERATORS[task](
        num_train=recipe.num_train, num_eval=recipe.num_eval, rng=DATA_SEED
    )


def resolve_model_name(model_name: str) -> str:
    """Map a full-scale model name to its tiny trained counterpart."""
    return TINY_COUNTERPART.get(model_name, model_name)


@dataclass
class FinetunedModel:
    """A fine-tuned evaluation model plus its data and baseline score."""

    model: Module
    splits: TaskSplits
    baseline_score: float
    config_name: str
    task: str


def _build(config_name: str, recipe: TrainRecipe) -> Module:
    config = get_config(config_name)
    return build_model(
        config, task=recipe.head, num_labels=max(recipe.num_labels, 1), rng=MODEL_SEED
    )


def get_finetuned(model_name: str, task: str, use_cache: bool = True) -> FinetunedModel:
    """Fine-tune (or load from cache) ``model_name`` on ``task``."""
    if task not in RECIPES:
        raise ValueError(f"unknown task {task!r}; known: {sorted(RECIPES)}")
    recipe = RECIPES[task]
    config_name = resolve_model_name(model_name)
    splits = task_splits(task)
    model = _build(config_name, recipe)

    key = f"{config_name}-{task}-seed{MODEL_SEED}"
    if use_cache:
        cached = cache.load_state(key)
        if cached is not None:
            state, scores = cached
            try:
                model.load_state_dict(state)
            except (KeyError, ValueError):
                cached = None  # stale architecture; retrain below
            else:
                baseline = scores.get("baseline", evaluate(model, splits.eval))
                return FinetunedModel(model, splits, baseline, config_name, task)

    trainer = Trainer(model, lr=recipe.lr, batch_size=recipe.batch_size, rng=TRAIN_SEED)
    trainer.fit(splits.train, epochs=recipe.epochs)
    baseline = evaluate(model, splits.eval)
    if use_cache:
        cache.save_state(key, model.state_dict(), {"baseline": baseline})
    return FinetunedModel(model, splits, baseline, config_name, task)


def serving_score(finetuned: FinetunedModel, quantized: QuantizedModel) -> float:
    """Evaluate ``quantized`` through the compressed-inference forward.

    A fresh probe of ``finetuned``'s architecture gets ``quantized``
    attached by :func:`~repro.models.attach_quantized_linears`, the forward
    ``repro serve`` runs: every quantized FC layer computes on its codes
    through the lookup kernel, every quantized embedding table gathers its
    rows from its codes, and no tensor is decoded.  The original model is
    never mutated.
    """
    probe = _build(finetuned.config_name, RECIPES[finetuned.task])
    attach_quantized_linears(probe, quantized)
    return evaluate(probe, finetuned.splits.eval)


def quantized_score(
    finetuned: FinetunedModel,
    weight_bits: int | LayerPolicy | None,
    embedding_bits: int | None,
    method: str = "gobo",
    workers: int | None = None,
) -> float:
    """Evaluate ``finetuned`` after quantizing weights and/or embeddings.

    ``weight_bits=None`` leaves the FC weights FP32 (Figure 4's
    embedding-only scenario).  Scoring goes through :func:`serving_score`.
    ``workers=None`` defers to the ``REPRO_WORKERS`` environment default, so
    whole experiment sweeps parallelize without touching every call site
    (results are bit-identical either way).
    """
    quantized = quantize_model(
        finetuned.model,
        weight_bits=weight_bits if weight_bits is not None else 3,
        embedding_bits=embedding_bits,
        method=method,
        quantize_weights=weight_bits is not None,
        workers=workers,
    )
    return serving_score(finetuned, quantized)


def error_vs_baseline(baseline: float, score: float) -> float:
    """The paper's 'Error' column: accuracy-point loss vs the FP32 baseline."""
    return baseline - score
