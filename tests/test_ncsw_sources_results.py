"""Tests for NCSw sources and result aggregation."""

import numpy as np
import pytest

from repro.data import ILSVRCValidation, ImageSynthesizer, Preprocessor
from repro.data import SynsetVocabulary
from repro.errors import FrameworkError
from repro.ncsw import ImageFolder, MPIStream, SyntheticSource
from repro.ncsw.results import InferenceRecord, RunResult


def _dataset():
    vocab = SynsetVocabulary(num_classes=10)
    synth = ImageSynthesizer(num_classes=10, size=32, noise_sigma=20)
    return ILSVRCValidation(vocab, synth, num_images=50, subset_size=10)


# --- sources -----------------------------------------------------------------

def test_image_folder_yields_preprocessed_items():
    ds = _dataset()
    src = ImageFolder(ds, subset=0, preprocessor=Preprocessor(32))
    items = list(src)
    assert len(items) == len(src) == 10
    first = items[0]
    assert first.image_id == 1
    assert first.tensor.shape == (3, 32, 32)
    assert first.tensor.dtype == np.float32
    assert first.label == ds.record(1).label


def test_image_folder_limit():
    ds = _dataset()
    src = ImageFolder(ds, subset=1, preprocessor=Preprocessor(32),
                      limit=3)
    items = list(src)
    assert len(items) == 3
    assert items[0].image_id == 11  # subset 1 starts at id 11
    with pytest.raises(FrameworkError):
        ImageFolder(ds, subset=0, preprocessor=Preprocessor(32), limit=0)


def test_image_folder_reiterable_and_tracks_decode():
    ds = _dataset()
    src = ImageFolder(ds, subset=0, preprocessor=Preprocessor(32),
                      limit=4)
    a = [i.image_id for i in src]
    b = [i.image_id for i in src]
    assert a == b
    assert src.decoder.stats.images == 8  # two passes of 4


def test_image_folder_repasses_equal_a_cold_decode():
    # Later passes reuse the kept tensors: the same bits as decoding
    # afresh, read-only so no consumer can corrupt the next pass.
    ds = _dataset()
    src = ImageFolder(ds, subset=0, preprocessor=Preprocessor(32))
    passes = [list(src) for _ in range(3)]
    cold = [Preprocessor(32)(ds.pixels(i.image_id)) for i in passes[0]]
    for items in passes:
        assert [i.tensor.tobytes() for i in items] == \
            [c.tobytes() for c in cold]
        assert not any(i.tensor.flags.writeable for i in items)
    with pytest.raises(ValueError):
        passes[1][0].tensor[0, 0, 0] = 0.0


def test_image_folder_charges_every_pass_like_a_decode():
    # Decoder stats after N passes equal N full decodes of the subset,
    # accrued in the same order.
    from repro.data.decode import JPEGDecoder

    ds = _dataset()
    src = ImageFolder(ds, subset=0, preprocessor=Preprocessor(32),
                      limit=6)
    fresh = JPEGDecoder(ds.synthesizer)
    for _ in range(3):
        ids = [i.image_id for i in src]
        for image_id in ids:
            fresh.decode(ds.record(image_id).label, image_id)
    assert src.decoder.stats == fresh.stats
    assert src.decoder.stats.images == 18


def test_image_folder_store_is_bounded(monkeypatch):
    # Past the byte budget the store stops growing (it never evicts):
    # the kept prefix is reused, the rest is decoded on every pass.
    from repro.data.generator import ImageSynthesizer
    from repro.ncsw import sources

    ds = _dataset()
    tensor_bytes = 3 * 32 * 32 * 4
    monkeypatch.setattr(sources, "STORE_BYTES", 3 * tensor_bytes)
    sampled = []
    real_sample = ImageSynthesizer.sample

    def counting_sample(self, class_index, image_id):
        sampled.append(image_id)
        return real_sample(self, class_index, image_id)

    monkeypatch.setattr(ImageSynthesizer, "sample", counting_sample)
    src = ImageFolder(ds, subset=0, preprocessor=Preprocessor(32))
    first = [i.tensor.tobytes() for i in src]
    assert sampled == list(range(1, 11))
    sampled.clear()
    second = [i.tensor.tobytes() for i in src]
    assert sampled == list(range(4, 11))
    assert first == second
    assert src.decoder.stats.images == 20


def test_synthetic_source():
    src = SyntheticSource(5)
    items = list(src)
    assert len(items) == 5
    assert all(i.tensor is None and i.label is None for i in items)
    with pytest.raises(FrameworkError):
        SyntheticSource(0)


def test_mpi_stream_roundtrip():
    stream = MPIStream(source_rank=0)
    x = np.ones((3, 8, 8), dtype=np.float32)
    stream.send(x, label=3, tag="frame0")
    stream.send(x * 2, label=5)
    stream.close()
    items = list(stream)
    assert len(items) == len(stream) == 2
    assert items[0].label == 3
    assert items[1].label == 5
    np.testing.assert_array_equal(items[1].tensor, x * 2)


def test_mpi_stream_requires_close():
    stream = MPIStream()
    stream.send(None)
    with pytest.raises(FrameworkError):
        list(stream)
    stream.close()
    with pytest.raises(FrameworkError):
        stream.send(None)  # closed stream rejects sends


def test_mpi_stream_reiterable():
    stream = MPIStream()
    stream.send(None, label=1)
    stream.close()
    assert [i.label for i in stream] == [1]
    assert [i.label for i in stream] == [1]


# --- results --------------------------------------------------------------------

def _record(idx, label, predicted, conf=0.9, device="d", t0=0.0, t1=0.1):
    return InferenceRecord(index=idx, image_id=idx + 1, label=label,
                           predicted=predicted, confidence=conf,
                           device=device, t_submit=t0, t_complete=t1)


def test_record_latency_and_correct():
    r = _record(0, 3, 3, t0=1.0, t1=1.5)
    assert r.latency == pytest.approx(0.5)
    assert r.correct is True
    assert _record(0, 3, 4).correct is False
    assert _record(0, None, 4).correct is None


def test_run_result_throughput():
    rr = RunResult(source="s", target="t", batch_size=8)
    rr.records = [_record(i, 0, 0) for i in range(10)]
    rr.wall_seconds = 2.0
    assert rr.images == 10
    assert rr.throughput() == pytest.approx(5.0)
    assert rr.seconds_per_image() == pytest.approx(0.2)


def test_run_result_top1_error():
    rr = RunResult(source="s", target="t", batch_size=1)
    rr.records = [_record(0, 1, 1), _record(1, 1, 2), _record(2, 0, 0),
                  _record(3, 2, 1)]
    assert rr.top1_error() == pytest.approx(0.5)


def test_run_result_no_labels_raises():
    rr = RunResult(source="s", target="t", batch_size=1)
    rr.records = [_record(0, None, None, conf=None)]
    rr.wall_seconds = 1.0
    with pytest.raises(FrameworkError):
        rr.top1_error()


def test_run_result_per_device_counts():
    rr = RunResult(source="s", target="t", batch_size=4)
    rr.records = [_record(i, 0, 0, device=f"vpu{i % 2}")
                  for i in range(6)]
    assert rr.per_device_counts() == {"vpu0": 3, "vpu1": 3}


def test_run_result_summary_renders():
    rr = RunResult(source="s", target="t", batch_size=2)
    rr.records = [_record(0, 1, 1)]
    rr.wall_seconds = 0.5
    s = rr.summary()
    assert "s->t" in s and "img/s" in s and "top-1" in s


def test_run_result_empty_guards():
    rr = RunResult(source="s", target="t", batch_size=1)
    with pytest.raises(FrameworkError):
        rr.throughput()
    with pytest.raises(FrameworkError):
        rr.seconds_per_image()


def test_synthetic_source_payload_hook():
    def payload(rng, index):
        return rng.normal(size=4).astype(np.float32) + index

    src = SyntheticSource(3, payload=payload, seed=7)
    items = list(src)
    assert all(i.tensor is not None and i.tensor.shape == (4,)
               for i in items)
    # Different items draw different tensors.
    assert not np.array_equal(items[0].tensor, items[1].tensor)


def test_synthetic_source_payload_determinism_contract():
    def payload(rng, index):
        return rng.normal(size=8).astype(np.float32)

    src = SyntheticSource(5, payload=payload, seed=3)
    full = [i.tensor for i in src]
    # Re-iteration reproduces every tensor byte for byte...
    again = [i.tensor for i in src]
    for a, b in zip(full, again):
        np.testing.assert_array_equal(a, b)
    # ...and item i's tensor does not depend on earlier draws: an
    # early-stopped pass still sees the same data.
    partial = []
    for item in src:
        partial.append(item.tensor)
        if item.index == 2:
            break
    np.testing.assert_array_equal(partial[2], full[2])
    # A different seed redraws everything.
    other = [i.tensor for i in SyntheticSource(5, payload=payload,
                                               seed=4)]
    assert not np.array_equal(other[0], full[0])
