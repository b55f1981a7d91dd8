"""Compress a fine-tuned BERT model without retraining (Table III workflow).

Run with:  python examples/compress_fine_tuned_model.py

Fine-tunes a tiny BERT on the synthetic MNLI task (a couple of minutes on one
CPU core), then applies GOBO and the baseline quantizers to the *frozen*
checkpoint and compares accuracy and compression — the paper's central
use case: quantization minutes after fine-tuning, no quantization-aware
retraining.  Every method compresses through ``quantize`` and is scored on
the compressed weights: ``attach_quantized_linears`` swaps each FC layer and
embedding table for a lookup-kernel module, the forward ``repro serve`` runs.
"""

from repro.core import select_parameters
from repro.data import generate_mnli
from repro.models import attach_quantized_linears, build_model, get_config
from repro.quant import GoboModelQuantizer, Q8BertQuantizer, QBertQuantizer
from repro.training import Trainer, evaluate


def main() -> None:
    config = get_config("tiny-bert-base")
    splits = generate_mnli(num_train=2000, num_eval=400, rng=0)

    print("fine-tuning tiny-bert-base on synthetic MNLI ...")
    model = build_model(config, task="classification", num_labels=3, rng=1)
    Trainer(model, lr=1e-3, batch_size=32, rng=2).fit(splits.train, epochs=5)
    baseline = evaluate(model, splits.eval)
    print(f"baseline accuracy: {baseline * 100:.2f}%\n")

    selection = select_parameters(model)
    state = model.state_dict()
    quantizers = {
        # GOBO at 3 and 4 bits (4-bit embeddings, as in Table III).
        "GOBO 3-bit": GoboModelQuantizer(weight_bits=3, embedding_bits=4),
        "GOBO 4-bit": GoboModelQuantizer(weight_bits=4, embedding_bits=4),
        "Q8BERT": Q8BertQuantizer(),
        "Q-BERT 3-bit, 16 groups": QBertQuantizer(weight_bits=3, num_groups=16),
    }
    for label, quantizer in quantizers.items():
        quantized = quantizer.quantize(state, selection.fc_names, selection.embedding_names)
        probe = build_model(config, task="classification", num_labels=3, rng=1)
        score = evaluate(attach_quantized_linears(probe, quantized), splits.eval)
        print(
            f"{label}: accuracy {score * 100:.2f}% "
            f"(error {(baseline - score) * 100:+.2f}%), "
            f"CR {quantized.model_compression_ratio():.2f}x as archived on this model, "
            f"outliers {quantized.outlier_fraction() * 100:.3f}%"
        )


if __name__ == "__main__":
    main()
