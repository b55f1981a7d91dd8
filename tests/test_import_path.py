"""Quantizing and serving a model never import scipy.

Importing ``scipy.stats`` takes most of a second, a large share of every
``repro`` process start, yet only Figure 1's weight summaries and the STS-B
metric call it; those functions import it themselves.  The check runs in a
fresh interpreter, because the test session has imported scipy long before.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SCRIPT = textwrap.dedent("""
    import sys

    import numpy as np

    import repro
    import repro.cli
    import repro.serve.server
    from repro.core.serialization import save_quantized_model
    from repro.models import build_model, get_config
    from repro.serve.registry import ModelRegistry

    # The benchmark's tiny archive: tiny-bert-base from rng=0, 3-bit FC
    # layers, 4-bit embedding tables.
    model = build_model(get_config("tiny-bert-base"), rng=0).eval()
    save_quantized_model(
        repro.quantize_model(model, weight_bits=3, embedding_bits=4), sys.argv[1])
    registry = ModelRegistry()
    entry = registry.register("tiny", sys.argv[1])
    ids = np.array([[1, 2, 3, 4, 5, 6]])
    _, pooled = entry.model(ids, np.ones_like(ids), np.zeros_like(ids), pooled_only=True)
    assert np.isfinite(pooled.data).all()
    registry.close()
    print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
""")


def test_quantize_register_and_forward_leave_scipy_unloaded(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "tiny.npz")],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
