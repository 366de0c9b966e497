"""The host devices' FP32 reference rows are computed once per tensor.

CPU and GPU run the same network in the same precision over the same
prepared images, so :data:`repro.baselines.device.REFERENCE_MEMO`
lets the second device reuse the rows the first one computed.  These
tests pin that the sharing is invisible: records are the bits of a
memo-free forward, anything that could differ (another policy, another
network, a writable input) computes, and entries die with the source
that prepared the images.
"""

import gc

import numpy as np
import pytest

from repro.baselines.cpu import CPUDevice
from repro.baselines.device import REFERENCE_MEMO
from repro.harness.experiment import get_context
from repro.ncsw import ImageFolder, IntelCPU, NCSw, NvGPU, SyntheticSource
from repro.nn import get_model
from repro.nn.weights import initialize_network
from repro.numerics import PrecisionPolicy
from repro.sim import Environment

FP32 = PrecisionPolicy.fp32()


@pytest.fixture(scope="module")
def ctx():
    return get_context("smoke")


def _read_only(count, ctx, seed=0):
    shape = (ctx.network.input_shape.c, ctx.network.input_shape.h,
             ctx.network.input_shape.w)
    rng = np.random.default_rng(seed)
    tensors = []
    for _ in range(count):
        tensor = rng.normal(size=shape).astype(np.float32)
        tensor.flags.writeable = False
        tensors.append(tensor)
    return tensors


def _count_forwards(monkeypatch, net):
    """Record the batch size of every ``net.forward`` call."""
    sizes = []
    forward = net.forward

    def counting(x, policy=None, capture=None):
        sizes.append(len(x))
        return forward(x, policy, capture)

    monkeypatch.setattr(net, "forward", counting)
    return sizes


def _run(device, images):
    env = device.env
    return env.run(until=env.process(device._run(images, len(images))))


def _outcomes(result):
    return [(r.index, r.predicted, r.confidence)
            for r in result.records]


def test_cpu_and_gpu_records_are_the_memo_free_bits(ctx, monkeypatch):
    folder = ImageFolder(ctx.dataset, 0, ctx.preprocessor)
    writable = [np.array(item.tensor) for item in folder]
    fw = NCSw()
    fw.add_source("val", folder)
    fw.add_source("copies", SyntheticSource(
        len(writable), payload=lambda _rng, index: writable[index]))
    fw.add_target("cpu", IntelCPU(ctx.network, functional=True))
    fw.add_target("gpu", NvGPU(ctx.network, functional=True))
    sizes = _count_forwards(monkeypatch, ctx.network)
    cpu = fw.run("val", "cpu", batch_size=8)
    assert sum(sizes) == len(folder)
    gpu = fw.run("val", "gpu", batch_size=8)
    assert sum(sizes) == len(folder)  # every GPU row came from the memo
    for run in (cpu, gpu):
        reference = fw.run("copies", run.target, batch_size=8)
        assert _outcomes(run) == _outcomes(reference)
        # Each device still pays its own simulated time.
        assert ([(r.t_submit, r.t_complete) for r in run.records]
                == [(r.t_submit, r.t_complete)
                    for r in reference.records])
    assert sum(sizes) == 3 * len(folder)  # writable copies computed


def test_another_policy_or_network_misses(ctx, monkeypatch):
    tensors = _read_only(4, ctx)
    fp16_bits = ctx.network.forward(np.stack(tensors),
                                    PrecisionPolicy.fp16()).tobytes()
    other = get_model(ctx.scale.model)
    initialize_network(other)
    other_bits = other.forward(np.stack(tensors), FP32).tobytes()
    env = Environment()
    _run(CPUDevice(env, ctx.network, functional=True), tensors)
    sizes = _count_forwards(monkeypatch, ctx.network)
    other_sizes = _count_forwards(monkeypatch, other)

    fp16 = REFERENCE_MEMO.forward(ctx.network, PrecisionPolicy.fp16(),
                                  tensors)
    assert fp16.tobytes() == fp16_bits
    assert sizes == [4]
    out = _run(CPUDevice(env, other, functional=True), tensors)
    assert out.tobytes() == other_bits
    assert other_sizes == [4] and sizes == [4]


def test_writable_and_borrowed_tensors_always_compute(ctx, monkeypatch):
    writable = [np.array(t) for t in _read_only(3, ctx, seed=1)]
    borrowed = np.stack(_read_only(3, ctx, seed=2))
    borrowed.flags.writeable = False
    views = list(borrowed)  # read-only, but they do not own their data
    before = len(REFERENCE_MEMO)
    sizes = _count_forwards(monkeypatch, ctx.network)
    env = Environment()
    for images in (writable, views):
        device = CPUDevice(env, ctx.network, functional=True)
        first = _run(device, images)
        second = _run(device, images)
        assert first.tobytes() == second.tobytes()
    assert sizes == [3, 3, 3, 3]
    assert len(REFERENCE_MEMO) == before


def test_memo_dies_with_the_image_folder(ctx):
    gc.collect()
    before = len(REFERENCE_MEMO)
    folder = ImageFolder(ctx.dataset, 1, ctx.preprocessor)
    fw = NCSw()
    fw.add_source("val", folder)
    fw.add_target("cpu", IntelCPU(ctx.network, functional=True))
    fw.run("val", "cpu", batch_size=8)
    assert len(REFERENCE_MEMO) == before + len(folder)
    del fw, folder
    gc.collect()
    assert len(REFERENCE_MEMO) == before


def test_partly_memoised_batch_forwards_only_the_missing_rows(
        ctx, monkeypatch):
    tensors = _read_only(8, ctx, seed=3)
    env = Environment()
    _run(CPUDevice(env, ctx.network, functional=True), tensors[::2])
    full = ctx.network.forward(np.stack(tensors), FP32)
    sizes = _count_forwards(monkeypatch, ctx.network)
    out = _run(CPUDevice(env, ctx.network, functional=True), tensors)
    assert sizes == [4]
    assert out.tobytes() == full.tobytes()
