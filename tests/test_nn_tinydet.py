"""TinyDet tests: the synthetic detector feeding workflow cascades.

Pins the builder (shapes, zoo registration, VPU compilability) and
the seeded oracle that workflow runs rely on for byte-identical
replay.
"""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.nn.tinydet import (
    BOX_FIELDS,
    TinyDetConfig,
    build_tinydet,
    seeded_detections,
)
from repro.nn.zoo import list_models, model_entry
from repro.vpu import compile_graph


# -- config and builder -----------------------------------------------------

def test_config_validation():
    with pytest.raises(GraphError):
        TinyDetConfig(input_size=8)
    with pytest.raises(GraphError):
        TinyDetConfig(num_boxes=0)
    with pytest.raises(GraphError):
        TinyDetConfig(width=0.0)
    with pytest.raises(GraphError):
        TinyDetConfig(width=1.5)


def test_width_multiplier_never_collapses_a_layer():
    assert TinyDetConfig(width=0.01).ch(16) == 1
    assert TinyDetConfig(width=0.5).ch(16) == 8


def test_builder_head_size_matches_box_count():
    cfg = TinyDetConfig(input_size=32, num_boxes=3, width=0.5)
    net = build_tinydet(cfg)
    shapes = net.infer_shapes()
    head = shapes["det_head"]
    assert head.c == BOX_FIELDS * 3
    # Two stride-2 convs/pools: 32px -> 16 -> 8 -> 4 spatially.
    assert shapes["pool2"].h == shapes["pool2"].w == 4


def test_zoo_registration():
    assert "tinydet" in list_models()
    assert "tinydet-micro" in list_models()
    entry = model_entry("tinydet")
    assert entry.feature_blob == "pool2"
    assert entry.classifier_layer == "det_head"


def test_tinydet_compiles_for_the_vpu():
    graph = compile_graph(build_tinydet(
        TinyDetConfig(input_size=32, num_boxes=3, width=0.5)))
    assert graph.layers
    assert graph.inference_seconds > 0.0


# -- the seeded oracle ------------------------------------------------------

def test_seeded_detections_replay():
    a = seeded_detections(np.random.default_rng(42), 4, 64)
    b = seeded_detections(np.random.default_rng(42), 4, 64)
    assert a == b


def test_seeded_detections_are_valid_boxes():
    for seed in range(8):
        dets = seeded_detections(np.random.default_rng(seed), 4, 64)
        assert 1 <= len(dets) <= 4
        scores = [d.score for d in dets]
        assert scores == sorted(scores, reverse=True)
        for det in dets:
            assert 0.0 <= det.x and det.x + det.w <= 64.0 + 1e-9
            assert 0.0 <= det.y and det.y + det.h <= 64.0 + 1e-9


def test_seeded_detections_rejects_zero_boxes():
    with pytest.raises(GraphError):
        seeded_detections(np.random.default_rng(0), 0, 64)
