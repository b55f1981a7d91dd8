"""Tests for the quantizer registry and the GOBO adapter."""

import numpy as np
import pytest

from repro.core.model_quantizer import select_parameters
from repro.errors import ConfigError
from repro.models.heads import BertForSequenceClassification
from repro.quant import (
    TABLE3_SPECS,
    GoboModelQuantizer,
    GwqQuantizer,
    MethodFamily,
    MethodOption,
    MixedBitsQuantizer,
    Q8BertQuantizer,
    QBertQuantizer,
    ZeroShotQuantizer,
    available_specs,
    build_quantizer,
    describe_specs,
    parse_spec,
    register,
    unregister,
)
from tests.conftest import MICRO_CONFIG


class TestBuildQuantizer:
    def test_q8bert(self):
        assert isinstance(build_quantizer("q8bert"), Q8BertQuantizer)

    def test_qbert_bits_parsed(self):
        quantizer = build_quantizer("qbert-4bit")
        assert isinstance(quantizer, QBertQuantizer)
        assert quantizer.weight_bits == 4

    def test_gobo_bits_parsed(self):
        quantizer = build_quantizer("gobo-3bit")
        assert isinstance(quantizer, GoboModelQuantizer)
        assert quantizer.weight_bits == 3

    def test_zeroshot_default_bits(self):
        quantizer = build_quantizer("zeroshot")
        assert isinstance(quantizer, ZeroShotQuantizer)
        assert quantizer.bits == 8

    def test_gwq_multi_option_spec(self):
        quantizer = build_quantizer("gwq-4bit-2.5pct")
        assert isinstance(quantizer, GwqQuantizer)
        assert quantizer.weight_bits == 4
        assert quantizer.outlier_pct == 2.5

    def test_mixed_budget_parsed(self):
        quantizer = build_quantizer("mixed-15pct")
        assert isinstance(quantizer, MixedBitsQuantizer)
        assert quantizer.budget_pct == 15.0

    @pytest.mark.parametrize("spec", ["gob-3bit", "gobo-xbit", "gobo-9bit", ""])
    def test_invalid_specs_rejected(self, spec):
        with pytest.raises(ConfigError):
            build_quantizer(spec)

    def test_table3_specs_all_buildable(self):
        for spec in TABLE3_SPECS:
            assert build_quantizer(spec) is not None


class TestSpecGrammarHardening:
    @pytest.mark.parametrize("spec", [
        "gwq-0bit",        # bits below the family minimum
        "mixed--1pct",     # empty token then a stray "1pct"? no: negative pct
        "mixed-0.5pct",    # budget below the family minimum
        "zeroshot-1bit",   # below zeroshot's 2-bit floor
        "qbert-3bit-3bit",  # duplicate option
        "gobo-3bit-4bit",  # duplicate option
        "q8bert-3bit",     # family takes no options
        "gwq-pct",         # suffix with no value
        "gobo--3bit",      # empty option token
    ])
    def test_malformed_specs_raise_config_error(self, spec):
        with pytest.raises(ConfigError):
            build_quantizer(spec)

    @pytest.mark.parametrize("spec", ["bogus", "gwq-0bit", "mixed--1pct", ""])
    def test_errors_list_available_specs(self, spec):
        with pytest.raises(ConfigError) as excinfo:
            build_quantizer(spec)
        message = str(excinfo.value)
        assert "available specs" in message
        for known in available_specs():
            assert known in message

    def test_parse_spec_applies_defaults(self):
        family, values = parse_spec("gwq-4bit")
        assert family.name == "gwq"
        assert values == {"bits": 4, "pct": 1.0}


class TestRegistration:
    def test_duplicate_register_raises_not_overwrites(self):
        family = MethodFamily(
            name="contracttest",
            factory=lambda: ZeroShotQuantizer(),
            description="test-only family",
            canonical_specs=("contracttest",),
        )
        register(family)
        try:
            sentinel = MethodFamily(
                name="contracttest",
                factory=lambda: Q8BertQuantizer(),
                description="would shadow the first registration",
            )
            with pytest.raises(ConfigError):
                register(sentinel)
            # The original registration survived the rejected duplicate.
            assert isinstance(build_quantizer("contracttest"), ZeroShotQuantizer)
        finally:
            unregister("contracttest")

    def test_builtin_names_cannot_be_shadowed(self):
        with pytest.raises(ConfigError):
            register(MethodFamily(
                name="gobo", factory=lambda: None, description="shadow"
            ))

    def test_family_name_grammar_enforced(self):
        for bad in ("has-dash", "Upper", "spec with space", ""):
            with pytest.raises(ConfigError):
                register(MethodFamily(
                    name=bad, factory=lambda: None, description="bad name"
                ))

    def test_duplicate_option_suffixes_rejected(self):
        with pytest.raises(ConfigError):
            register(MethodFamily(
                name="twobits",
                factory=lambda bits: None,
                description="two options with one suffix",
                options=(
                    MethodOption("bits", "bit", 3, 1, 8),
                    MethodOption("other", "bit", 4, 1, 8),
                ),
            ))

    def test_registered_family_joins_available_specs(self):
        family = MethodFamily(
            name="freshfamily",
            factory=lambda: ZeroShotQuantizer(),
            description="shows up everywhere",
            canonical_specs=("freshfamily",),
        )
        register(family)
        try:
            assert "freshfamily" in available_specs()
            assert "freshfamily" in describe_specs()
        finally:
            unregister("freshfamily")
        assert "freshfamily" not in available_specs()

    def test_describe_specs_covers_every_family(self):
        text = describe_specs()
        for spec in available_specs():
            head = spec.partition("-")[0]
            assert head in text


class TestTensorMethodRegistry:
    def test_duplicate_tensor_method_raises(self):
        from repro.core.quantizer import (
            register_tensor_method,
            unregister_tensor_method,
        )

        def fake(weights, ctx):  # pragma: no cover - never invoked
            raise AssertionError

        register_tensor_method("contracttest_tm", fake)
        try:
            with pytest.raises(ConfigError):
                register_tensor_method("contracttest_tm", fake)
        finally:
            unregister_tensor_method("contracttest_tm")

    def test_unknown_tensor_method_lists_known(self):
        from repro.core.quantizer import resolve_tensor_method
        from repro.errors import QuantizationError

        with pytest.raises(QuantizationError) as excinfo:
            resolve_tensor_method("nope")
        assert "known methods" in str(excinfo.value)


class TestCliSpecSurface:
    def test_method_help_lists_available_specs(self, capsys):
        from repro.cli import main

        assert main(["quantize", "--method", "help"]) == 0
        out = capsys.readouterr().out
        for spec in available_specs():
            assert spec in out

    def test_unknown_method_error_lists_available_specs(self, capsys):
        from repro.cli import main

        assert main(["quantize", "--method", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "available specs" in err
        for spec in available_specs():
            assert spec in err


class TestGoboAdapter:
    @pytest.fixture(scope="class")
    def model(self):
        return BertForSequenceClassification(MICRO_CONFIG, num_labels=3, rng=0)

    def test_quantize_interface(self, model):
        selection = select_parameters(model)
        quantizer = GoboModelQuantizer(weight_bits=3, embedding_bits=4)
        result = quantizer.quantize(
            model.state_dict(), selection.fc_names, selection.embedding_names
        )
        assert quantizer.name == "gobo"
        assert set(result.quantized) == set(selection.fc_names + selection.embedding_names)

    def test_reconstruction_matches_core_path(self, model):
        from repro.core.model_quantizer import quantize_model

        selection = select_parameters(model)
        adapter = GoboModelQuantizer(weight_bits=3, embedding_bits=4).quantize(
            model.state_dict(), selection.fc_names, selection.embedding_names
        )
        core = quantize_model(model, weight_bits=3, embedding_bits=4)
        for name in selection.fc_names:
            np.testing.assert_array_equal(
                adapter.quantized[name].dequantize(dtype=np.float64),
                core.quantized[name].dequantize(dtype=np.float64),
            )

    def test_no_finetuning_flag(self):
        assert GoboModelQuantizer().requires_finetuning is False
        assert Q8BertQuantizer().requires_finetuning is True

    def test_baseline_method_name(self):
        assert GoboModelQuantizer(method="kmeans").name == "gobo-kmeans"
