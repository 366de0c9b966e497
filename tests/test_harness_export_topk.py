"""Tests for JSON result export."""

import json

import numpy as np

from repro.harness.export import save_figure_json


def test_exported_real_figure_is_json_safe(tmp_path):
    from repro.harness import fig6b_normalized_scaling
    fig = fig6b_normalized_scaling(images=32)
    save_figure_json(fig, tmp_path / "fig6b.json")
    data = json.loads((tmp_path / "fig6b.json").read_text())
    vpu = next(s for s in data["series"] if s["label"] == "vpu")
    np.testing.assert_allclose(vpu["y"], fig.by_label("vpu").y)
