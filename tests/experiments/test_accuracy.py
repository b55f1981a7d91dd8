"""Tests for the accuracy experiment engine (micro-scale, no disk cache)."""

import numpy as np
import pytest

import repro.experiments.accuracy as accuracy_mod
from repro import obs
from repro.core.model_quantizer import select_parameters
from repro.experiments.accuracy import (
    TrainRecipe,
    error_vs_baseline,
    get_finetuned,
    quantized_score,
    resolve_model_name,
)
from repro.quant import build_quantizer
from repro.training import evaluate
from tests.conftest import MICRO_CONFIG


@pytest.fixture(autouse=True)
def micro_recipes(monkeypatch, tmp_path):
    """Shrink the training recipes and isolate the disk cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(
        accuracy_mod,
        "RECIPES",
        {
            "mnli": TrainRecipe("mnli", "classification", 3, 64, 32, 1, 2e-3, 16),
            "stsb": TrainRecipe("stsb", "regression", 0, 64, 32, 1, 2e-3, 16),
        },
    )
    monkeypatch.setattr(accuracy_mod, "TINY_COUNTERPART", {"bert-base": "micro"})
    monkeypatch.setattr(
        accuracy_mod, "get_config", lambda name: MICRO_CONFIG
    )
    accuracy_mod.task_splits.cache_clear()
    yield
    accuracy_mod.task_splits.cache_clear()


class TestResolveModelName:
    def test_full_scale_mapped(self):
        assert resolve_model_name("bert-base") == "micro"

    def test_unknown_passthrough(self):
        assert resolve_model_name("micro") == "micro"


class TestGetFinetuned:
    def test_trains_and_reports_baseline(self):
        finetuned = get_finetuned("bert-base", "mnli", use_cache=False)
        assert 0.0 <= finetuned.baseline_score <= 1.0
        assert finetuned.task == "mnli"

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError):
            get_finetuned("bert-base", "qa", use_cache=False)

    def test_cache_round_trip(self):
        first = get_finetuned("bert-base", "mnli", use_cache=True)
        second = get_finetuned("bert-base", "mnli", use_cache=True)
        assert second.baseline_score == first.baseline_score
        np.testing.assert_array_equal(
            first.model.state_dict()["classifier.weight"],
            second.model.state_dict()["classifier.weight"],
        )


class TestQuantizedScore:
    @pytest.fixture(scope="class")
    def finetuned(self):
        # Class-scoped: train once for all scoring tests (fixtures above are
        # function-scoped, so rebuild the environment manually here).
        pass

    def test_scores_in_range(self):
        finetuned = get_finetuned("bert-base", "mnli", use_cache=False)
        for bits in (2, 4):
            score = quantized_score(finetuned, bits, None, method="gobo")
            assert 0.0 <= score <= 1.0

    def test_high_bits_track_baseline(self):
        finetuned = get_finetuned("bert-base", "mnli", use_cache=False)
        score = quantized_score(finetuned, 8, 8, method="gobo")
        assert abs(score - finetuned.baseline_score) < 0.15

    def test_embedding_only_scenario(self):
        finetuned = get_finetuned("bert-base", "mnli", use_cache=False)
        score = quantized_score(finetuned, None, 4, method="gobo")
        assert 0.0 <= score <= 1.0

    def test_source_model_not_mutated(self):
        finetuned = get_finetuned("bert-base", "mnli", use_cache=False)
        before = {k: v.copy() for k, v in finetuned.model.state_dict().items()}
        quantized_score(finetuned, 2, 2, method="linear")
        after = finetuned.model.state_dict()
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])


class TestErrorVsBaseline:
    def test_positive_when_worse(self):
        assert error_vs_baseline(0.9, 0.85) == pytest.approx(0.05)

    def test_negative_when_better(self):
        assert error_vs_baseline(0.9, 0.95) == pytest.approx(-0.05)


class TestTablesScoreThroughTheServingForward:
    """Table III and the zoo table score every row on the compressed
    weights, and each score equals the dense reference: the decoded weights
    loaded into a fresh probe."""

    SPECS = ("q8bert", "qbert-3bit", "gobo-3bit")

    @pytest.fixture(autouse=True)
    def tiny_full_scale(self, monkeypatch):
        # The ratio column's outlier census runs at the full-scale model's
        # dimensions; tiny-bert-base keeps it cheap.
        monkeypatch.setattr(
            accuracy_mod, "TINY_COUNTERPART", {"tiny-bert-base": "micro"}
        )

    @staticmethod
    def dense_scores(specs):
        finetuned = get_finetuned("tiny-bert-base", "mnli")
        selection = select_parameters(finetuned.model)
        state = finetuned.model.state_dict()
        scores = {}
        for spec in specs:
            quantized = build_quantizer(spec).quantize(
                state, selection.fc_names, selection.embedding_names
            )
            probe = accuracy_mod._build(finetuned.config_name, accuracy_mod.RECIPES["mnli"])
            scores[spec] = evaluate(quantized.apply_to(probe), finetuned.splits.eval)
        return scores, selection

    def test_zoo_rows_equal_the_dense_reference(self):
        from repro.experiments.tables import table3_method_zoo

        with obs.recording(obs.MemorySink()) as sink:
            result = table3_method_zoo("tiny-bert-base", specs=self.SPECS)
        scores, selection = self.dense_scores(self.SPECS)
        assert [row[0] for row in result.rows[1:]] == list(self.SPECS)
        for spec, row in zip(self.SPECS, result.rows[1:]):
            assert row[1] == f"{scores[spec] * 100:.2f}%", spec
        counters = obs.MetricsSnapshot.from_events(sink.events).counters
        # Every FC layer and embedding table of every row ran on a lookup
        # kernel, and no tensor was decoded.
        assert counters["kernels.prepared"] == len(self.SPECS) * (
            len(selection.fc_names) + len(selection.embedding_names)
        )
        assert counters.get("quantizer.dequantize_calls", 0) == 0

    def test_table3_is_the_zoo_loop_with_the_papers_columns(self):
        from repro.experiments.tables import table3_method_comparison
        from repro.quant import TABLE3_SPECS

        result = table3_method_comparison("tiny-bert-base")
        scores, _ = self.dense_scores(TABLE3_SPECS)
        rows = result.rows[1:]
        assert [row[:3] for row in rows] == [
            ["Q8BERT", "8-bit", "8-bit"],
            ["Q-BERT", "3-bit", "8-bit"],
            ["Q-BERT", "4-bit", "8-bit"],
            ["GOBO", "3-bit", "4-bit"],
            ["GOBO", "4-bit", "4-bit"],
        ]
        assert [row[5] for row in rows] == ["no", "no", "no", "yes", "yes"]
        for spec, row in zip(TABLE3_SPECS, rows):
            assert row[3] == f"{scores[spec] * 100:.2f}%", spec
