"""Built-in workflows: cascade, ensemble vote, gated escalation.

Three pipelines exercise every step kind against the paper's device
classes, plus the monolithic baseline the sweep compares against:

* ``cascade`` — detect (TinyDet on a VPU rig) → crop each detection
  into a classify sub-request (fan-out) → classify (GoogLeNet on the
  CPU) → aggregate the labels (join).  The canonical multi-phase
  pipeline: a VPU stage batching at stick count feeding a host stage
  batching at 16.
* ``ensemble`` — broadcast each request to GoogLeNet-on-VPU and
  AlexNet-on-CPU, then majority-vote the two labels at the join.
* ``escalate`` — GoogLeNet on the VPU first (FP16, the sticks' native
  precision); a branch escalates low-confidence results to the FP32
  CPU path and accepts the rest (the paper's precision split turned
  into a conditional pipeline).
* ``monolithic`` — one GoogLeNet classify stage, the baseline for the
  cascade-vs-monolith sweep.

Targets run ``functional=False`` (timing-only): stage latencies come
from the full device models while decode hooks draw deterministic
predictions from per-item seeded RNGs — the serving records carry
class summaries, not raw activations, so the detect stage always uses
the :func:`~repro.nn.tinydet.seeded_detections` oracle.  Compiled VPU
graphs are cached per model so sweeps do not recompile per run.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.errors import FlowError
from repro.flow.compiler import (CompiledWorkflow, WorkflowSpec,
                                 compile_workflow)
from repro.flow.steps import (BranchStep, FanOutStep, InferStep, Item,
                              JoinStep, TransformStep)
from repro.ncsw.targets import IntelCPU, IntelVPU, TargetDevice
from repro.nn.graph import Network
from repro.nn.tinydet import seeded_detections
from repro.nn.zoo import get_model, model_entry
from repro.vpu.compiler.compile import CompiledGraph, compile_graph

#: Scale presets: which zoo models each built-in workflow uses.
SCALES = {
    "micro": {"detect": "tinydet-micro", "classify": "googlenet-micro",
              "alt": "alexnet-mini", "classes": 10},
    "mini": {"detect": "tinydet", "classify": "googlenet-mini",
             "alt": "alexnet-mini", "classes": 50},
}


@lru_cache(maxsize=None)
def _network(model: str) -> Network:
    """One shared (read-only) network instance per zoo model."""
    return get_model(model)


@lru_cache(maxsize=None)
def _compiled(model: str) -> CompiledGraph:
    """Compile a zoo model for the VPU once per process."""
    return compile_graph(_network(model))


def _scale(scale: str) -> Dict[str, Any]:
    if scale not in SCALES:
        raise FlowError(
            f"unknown workflow scale {scale!r}; one of "
            f"{sorted(SCALES)}")
    return SCALES[scale]


def _vpu_targets(model: str, devices: int
                 ) -> Callable[[], Dict[str, TargetDevice]]:
    graph = _compiled(model)  # compile outside the factory: cached
    return lambda: {"vpu": IntelVPU(graph=graph, num_devices=devices,
                                    functional=False)}


def _cpu_targets(model: str) -> Callable[[], Dict[str, TargetDevice]]:
    network = _network(model)
    return lambda: {"cpu": IntelCPU(network, functional=False)}


# -- decode hooks (deterministic, timing-only friendly) -----------------
def _decode_detections(num_boxes: int, input_size: int):
    """Detect decode: the seeded oracle (records carry no raw boxes)."""
    def decode(record: Any, item: Item,
               rng: np.random.Generator) -> Any:
        return seeded_detections(rng, num_boxes, input_size)
    return decode


def _decode_label(num_classes: int, floor: float = 0.5):
    """Classify decode: real prediction when present, else seeded."""
    def decode(record: Any, item: Item,
               rng: np.random.Generator) -> Any:
        if record is not None and record.predicted is not None:
            return {"label": int(record.predicted),
                    "confidence": float(record.confidence)}
        return {"label": int(rng.integers(num_classes)),
                "confidence": float(rng.uniform(floor, 1.0))}
    return decode


def _crop_detections(item: Item, rng: np.random.Generator) -> list[Item]:
    """Fan-out fn: the top three detections become classify
    sub-items."""
    boxes = item.data or []
    return [Item(data=box, tensor=item.tensor) for box in boxes[:3]]


def _aggregate_labels(votes: list) -> Any:
    """Join reduce: per-crop labels -> highest-confidence verdict."""
    if not votes:
        return {"labels": (), "top": None}
    best = max(votes, key=lambda v: (v["confidence"], -v["label"]))
    return {"labels": tuple(v["label"] for v in votes),
            "top": best["label"]}


def _majority_vote(votes: list) -> Any:
    """Join reduce: ensemble members -> agreed or most-confident."""
    if not votes:
        return {"label": None, "agreed": False}
    labels = [v["label"] for v in votes]
    agreed = len(set(labels)) == 1
    best = max(votes, key=lambda v: (v["confidence"], -v["label"]))
    return {"label": labels[0] if agreed else best["label"],
            "agreed": agreed}


# -- built-in workflows -------------------------------------------------
def cascade_workflow(scale: str = "micro", *, vpu_devices: int = 4,
                     stage_slo_seconds: Optional[float] = None
                     ) -> CompiledWorkflow:
    """detect → crop (fan-out) → classify → aggregate (join)."""
    cfg = _scale(scale)
    det_entry = model_entry(cfg["detect"])
    det_cfg = det_entry.config
    spec = WorkflowSpec(f"cascade-{scale}")
    spec.add(
        InferStep("detect",
                  targets=_vpu_targets(cfg["detect"], vpu_devices),
                  decode=_decode_detections(det_cfg.num_boxes,
                                            det_cfg.input_size),
                  produces="detections",
                  slo_seconds=stage_slo_seconds),
        FanOutStep("crop", fn=_crop_detections,
                   consumes=("detections",), produces="crop"),
        InferStep("classify", targets=_cpu_targets(cfg["classify"]),
                  decode=_decode_label(cfg["classes"]),
                  consumes=("crop",), produces="vote",
                  slo_seconds=stage_slo_seconds),
        JoinStep("aggregate", reduce=_aggregate_labels,
                 consumes=("vote",), produces="verdict"),
    )
    spec.connect("detect", "crop")
    spec.connect("crop", "classify")
    spec.connect("classify", "aggregate")
    return compile_workflow(spec)


def ensemble_workflow(scale: str = "micro", *, vpu_devices: int = 4
                      ) -> CompiledWorkflow:
    """Broadcast to two model classes, majority-vote at the join."""
    cfg = _scale(scale)
    spec = WorkflowSpec(f"ensemble-{scale}")
    spec.add(
        FanOutStep("replicate", produces="image"),
        InferStep("classify-vpu",
                  targets=_vpu_targets(cfg["classify"], vpu_devices),
                  decode=_decode_label(cfg["classes"]),
                  consumes=("image",), produces="vote"),
        InferStep("classify-cpu", targets=_cpu_targets(cfg["alt"]),
                  decode=_decode_label(cfg["classes"]),
                  consumes=("image",), produces="vote"),
        JoinStep("vote", reduce=_majority_vote, consumes=("vote",),
                 produces="verdict"),
    )
    spec.connect("replicate", "classify-vpu")
    spec.connect("replicate", "classify-cpu")
    spec.connect("classify-vpu", "vote")
    spec.connect("classify-cpu", "vote")
    return compile_workflow(spec)


def escalation_workflow(scale: str = "micro", *, vpu_devices: int = 4
                        ) -> CompiledWorkflow:
    """FP16 VPU classify; confidence below 0.8 escalates to FP32 CPU.

    The sticks run FP16 natively and the Caffe hosts FP32 (paper
    §II); the branch turns that precision split into a conditional
    pipeline: accept confident FP16 answers, re-run the rest at FP32.
    """
    cfg = _scale(scale)

    def gate(data: Any) -> str:
        return ("accept" if data["confidence"] >= 0.8
                else "classify-fp32")

    spec = WorkflowSpec(f"escalate-{scale}")
    spec.add(
        InferStep("classify-fp16",
                  targets=_vpu_targets(cfg["classify"], vpu_devices),
                  decode=_decode_label(cfg["classes"], floor=0.5),
                  produces="vote"),
        BranchStep("gate", route=gate, consumes=("vote",),
                   produces="vote"),
        TransformStep("accept", fn=lambda data, rng: data,
                      consumes=("vote",), produces="verdict"),
        InferStep("classify-fp32",
                  targets=_cpu_targets(cfg["classify"]),
                  decode=_decode_label(cfg["classes"], floor=0.8),
                  consumes=("vote",), produces="verdict"),
    )
    spec.connect("classify-fp16", "gate")
    spec.connect("gate", "accept")
    spec.connect("gate", "classify-fp32")
    return compile_workflow(spec)


def monolithic_workflow(scale: str = "micro", *, vpu_devices: int = 4
                        ) -> CompiledWorkflow:
    """One classify stage: the cascade's single-model baseline."""
    cfg = _scale(scale)
    spec = WorkflowSpec(f"monolithic-{scale}")
    spec.add(InferStep(
        "classify",
        targets=_vpu_targets(cfg["classify"], vpu_devices),
        decode=_decode_label(cfg["classes"]),
        produces="verdict"))
    return compile_workflow(spec)


WORKFLOWS: Dict[str, Callable[..., CompiledWorkflow]] = {
    "cascade": cascade_workflow,
    "ensemble": ensemble_workflow,
    "escalate": escalation_workflow,
    "monolithic": monolithic_workflow,
}


def build_workflow(name: str, scale: str = "micro",
                   **kwargs: Any) -> CompiledWorkflow:
    """Build a built-in workflow by name."""
    if name not in WORKFLOWS:
        raise FlowError(
            f"unknown workflow {name!r}; one of {sorted(WORKFLOWS)}")
    return WORKFLOWS[name](scale, **kwargs)
