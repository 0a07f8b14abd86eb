"""The benchmark's traced run wraps engine functions by name; a rename must fail here."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402

from mvfuse.encoders import EncoderConfig, ViewSpec  # noqa: E402
from mvfuse.fusion import FusionConfig  # noqa: E402
from mvfuse.model import build_model  # noqa: E402
from mvfuse.tensor import Tensor  # noqa: E402


def test_instrumented_wraps_every_target_and_restores_it():
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in spans.TARGETS]
    originals.append((Tensor, "backward", Tensor.backward))
    specs = [ViewSpec(id=f"v{i}", kind="static", channels=2) for i in range(2)]
    model = build_model(specs, EncoderConfig(latent_dim=4, layers=1, dropout=0.0),
                        FusionConfig(kind="average"), "regression", 1, "feature",
                        np.random.default_rng(0))
    views = {s.id: np.ones((3, 2)) for s in specs}
    available = np.array([[True, True], [True, False], [True, True]])
    with spans.instrumented(spans.Tracer()) as tracer:
        for owner, attr, original in originals:
            assert getattr(owner, attr) is not original, attr
        model.predict(views, available)
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, attr
    counts = {name: row["count"] for name, row in tracer.totals().items()}
    # one forward_masks over all samples: each encoder once, one fusion and
    # head call for both patterns, and no forward_masked per sample group
    assert counts["model.predict"] == 1
    assert "model.forward_masked" not in counts
    assert counts["model.fuse_head"] == 1
    assert counts["fusion.average.fuse"] == 1
    assert counts["encoders.static"] == 2
