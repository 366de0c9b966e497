"""Integration tests for the NCSw framework, scheduler and targets."""

import numpy as np
import pytest

from repro.data import ILSVRCValidation, ImageSynthesizer, Preprocessor
from repro.data import SynsetVocabulary
from repro.errors import FrameworkError
from repro.ncsw import (
    ImageFolder,
    IntelCPU,
    IntelVPU,
    NCSw,
    NvGPU,
    SyntheticSource,
)
from repro.ncsw.sources import WorkItem
from repro.nn import get_model
from repro.nn.weights import WeightStore
from repro.sim import Environment
from repro.vpu import compile_graph


@pytest.fixture(scope="module")
def micro_setup():
    """Pretrained micro network + matching dataset and preprocessor."""
    net = get_model("googlenet-micro")
    synth = ImageSynthesizer(num_classes=10, size=32, noise_sigma=0,
                             jitter_shift=0)
    pp = Preprocessor(input_size=32)
    WeightStore(seed=0, logit_scale=8.0).pretrain(
        net, lambda c: pp(synth.template(c)), num_classes=10)
    vocab = SynsetVocabulary(num_classes=10)
    ds = ILSVRCValidation(vocab, synth.with_noise(25.0), num_images=40,
                          subset_size=20)
    return net, ds, pp


@pytest.fixture(scope="module")
def micro_graph(micro_setup):
    net, _, _ = micro_setup
    return compile_graph(net)


def _fw(micro_setup, micro_graph, functional=True, vpus=2):
    net, ds, pp = micro_setup
    fw = NCSw()
    fw.add_source("val0", ImageFolder(ds, 0, pp))
    fw.add_source("synth", SyntheticSource(24))
    fw.add_target("cpu", IntelCPU(net, functional=functional))
    fw.add_target("gpu", NvGPU(net, functional=functional))
    fw.add_target("vpu", IntelVPU(graph=micro_graph, num_devices=vpus,
                                  functional=functional))
    return fw


def test_registration_guards(micro_setup, micro_graph):
    fw = _fw(micro_setup, micro_graph)
    with pytest.raises(FrameworkError):
        fw.add_source("val0", SyntheticSource(1))
    with pytest.raises(FrameworkError):
        fw.add_target("cpu", IntelCPU(micro_setup[0]))
    with pytest.raises(FrameworkError):
        fw.run("nope", "cpu")
    with pytest.raises(FrameworkError):
        fw.run("val0", "nope")
    with pytest.raises(FrameworkError):
        fw.run("val0", "cpu", batch_size=0)


def test_cpu_run_functional(micro_setup, micro_graph):
    fw = _fw(micro_setup, micro_graph)
    result = fw.run("val0", "cpu", batch_size=4)
    assert result.images == 20
    assert result.wall_seconds > 0
    # All predictions scored; calibrated noise keeps error moderate.
    assert 0.0 <= result.top1_error() <= 0.7
    assert result.decode_seconds_excluded > 0


def test_vpu_run_functional_matches_fp16(micro_setup, micro_graph):
    net, ds, pp = micro_setup
    fw = _fw(micro_setup, micro_graph)
    result = fw.run("val0", "vpu", batch_size=2)
    assert result.images == 20
    # VPU records carry device names and balanced round-robin counts.
    counts = result.per_device_counts()
    assert set(counts) == {"vpu0", "vpu1"}
    assert counts["vpu0"] == counts["vpu1"] == 10
    # Spot-check one record against the reference FP16 path.
    from repro.numerics import PrecisionPolicy
    rec = result.records[0]
    item_tensor = pp(ds.pixels(rec.image_id))
    probs = net.forward(item_tensor[None], PrecisionPolicy.fp16())
    assert rec.predicted == int(probs.ravel().argmax())


def test_cpu_vpu_error_rates_close(micro_setup, micro_graph):
    """FP32 (CPU) and FP16 (VPU) disagree on at most a few images."""
    fw = _fw(micro_setup, micro_graph)
    e_cpu = fw.run("val0", "cpu", batch_size=4).top1_error()
    e_vpu = fw.run("val0", "vpu", batch_size=4).top1_error()
    assert abs(e_cpu - e_vpu) <= 0.15


def test_timing_only_run(micro_setup, micro_graph):
    fw = _fw(micro_setup, micro_graph, functional=False)
    result = fw.run("synth", "vpu", batch_size=2)
    assert result.images == 24
    assert result.throughput() > 0
    with pytest.raises(FrameworkError):
        result.top1_error()


def test_multi_vpu_throughput_scales(micro_setup, micro_graph):
    net, _, _ = micro_setup
    fw = NCSw()
    fw.add_source("synth", SyntheticSource(32))
    for n in (1, 4):
        fw.add_target(f"vpu{n}", IntelVPU(graph=micro_graph,
                                          num_devices=n,
                                          functional=False))
    t1 = fw.run("synth", "vpu1", batch_size=1).throughput()
    t4 = fw.run("synth", "vpu4", batch_size=4).throughput()
    assert t4 > 2.0 * t1  # strong scaling with stick count


def test_overlap_beats_serialized(micro_setup, micro_graph):
    fw = NCSw()
    fw.add_source("synth", SyntheticSource(16))
    fw.add_target("ov", IntelVPU(graph=micro_graph, num_devices=1,
                                 functional=False, overlap=True))
    fw.add_target("ser", IntelVPU(graph=micro_graph, num_devices=1,
                                  functional=False, overlap=False))
    t_ov = fw.run("synth", "ov", batch_size=8).wall_seconds
    t_ser = fw.run("synth", "ser", batch_size=8).wall_seconds
    assert t_ov < t_ser  # transfer/compute overlap pays


def test_one_stick_pipelines_a_batch(micro_graph):
    env = Environment()
    target = IntelVPU(graph=micro_graph, num_devices=1, functional=False)
    env.run(until=target.prepare(env))
    t0 = env.now
    records = env.run(until=env.process(target.execute(
        [WorkItem(i, i, None) for i in range(6)])))
    assert len(records) == 6
    # Pipelined: the 6 inferences cost ~6 inference times (transfers
    # hidden), not 6 x (transfer + inference) serialised.
    assert env.now - t0 < 6 * micro_graph.inference_seconds * 1.15


def test_run_limit(micro_setup, micro_graph):
    fw = _fw(micro_setup, micro_graph, functional=False)
    result = fw.run("synth", "cpu", batch_size=4, limit=6)
    assert result.images == 6


def test_run_group_splits_items(micro_setup, micro_graph):
    fw = _fw(micro_setup, micro_graph, functional=False)
    results = fw.run_group("synth", ["cpu", "gpu"], batch_size=4)
    assert results["cpu"].images == 12
    assert results["gpu"].images == 12
    assert results["cpu"].wall_seconds > 0
    with pytest.raises(FrameworkError):
        fw.run_group("synth", [])


def test_run_group_empty_split_marked(micro_setup, micro_graph):
    # Two items over three targets: round-robin starves the last one.
    fw = _fw(micro_setup, micro_graph, functional=False)
    results = fw.run_group("synth", ["cpu", "gpu", "vpu"],
                           batch_size=4, limit=2)
    assert results["cpu"].images == 1
    assert results["gpu"].images == 1
    empty = results["vpu"]
    assert empty.empty and empty.images == 0
    assert "empty" in empty.summary()
    with pytest.raises(FrameworkError):
        empty.throughput()
    with pytest.raises(FrameworkError):
        empty.seconds_per_image()
    # Populated results are not flagged.
    assert not results["cpu"].empty


def test_gpu_faster_than_cpu_at_batch8(micro_setup, micro_graph):
    fw = _fw(micro_setup, micro_graph, functional=False)
    t_cpu = fw.run("synth", "cpu", batch_size=8).throughput()
    t_gpu = fw.run("synth", "gpu", batch_size=8).throughput()
    assert t_gpu > t_cpu


def test_intel_vpu_validation(micro_setup, micro_graph):
    with pytest.raises(FrameworkError):
        IntelVPU()  # neither network nor graph
    with pytest.raises(FrameworkError):
        IntelVPU(graph=micro_graph, num_devices=0)
    with pytest.raises(FrameworkError):
        IntelVPU(graph=micro_graph, num_devices=9)


def test_vpu_tdp_scales_with_devices(micro_graph):
    assert IntelVPU(graph=micro_graph, num_devices=1).tdp_watts == 2.5
    assert IntelVPU(graph=micro_graph, num_devices=8).tdp_watts == 20.0


def test_host_target_tdp(micro_setup, micro_graph):
    net, _, _ = micro_setup
    assert IntelCPU(net).tdp_watts == 80.0
    assert NvGPU(net).tdp_watts == 80.0


def test_decode_seconds_excluded_is_per_run(micro_setup, micro_graph):
    # Each run reports its own pass's decode cost, not the source's
    # running total since it was built.
    fw = _fw(micro_setup, micro_graph)
    costs = [fw.run("val0", name, batch_size=4).decode_seconds_excluded
             for name in ("cpu", "gpu", "vpu")]
    assert costs[0] > 0
    assert costs == pytest.approx([costs[0]] * 3, rel=1e-12)
    assert fw.source("val0").decoder.stats.seconds == pytest.approx(
        sum(costs), rel=1e-12)
