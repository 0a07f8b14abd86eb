"""The benchmark calls and wraps engine functions by name and checks its
reference case against stored outputs; a rename or a moved output must fail here."""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

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


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reference_case_matches_reference_json(name, tmp_path):
    stored = json.loads((PERFBENCH / "reference.json").read_text())[name]
    got = workloads.reference_values(workloads.WORKLOADS[name], tmp_path)
    assert set(got) == set(stored)
    for key, want in stored.items():
        assert math.isclose(got[key], want, rel_tol=run.RTOL, abs_tol=run.ATOL), \
            (key, got[key], want)
