"""Tests for the ILSVRC validation dataset, decode and preprocessing."""

import numpy as np
import pytest

from repro.data import (
    ILSVRCValidation,
    ImageSynthesizer,
    JPEGDecoder,
    Preprocessor,
    SynsetVocabulary,
)
from repro.data.preprocess import ILSVRC2012_MEAN_BGR, resize_bilinear
from repro.errors import DatasetError


def _dataset(num_images=100, subset_size=20, classes=10, size=32):
    vocab = SynsetVocabulary(num_classes=classes)
    synth = ImageSynthesizer(num_classes=classes, size=size,
                             noise_sigma=20)
    return ILSVRCValidation(vocab, synth, num_images=num_images,
                            subset_size=subset_size)


# --- dataset ---------------------------------------------------------------

def test_dataset_length_and_subsets():
    ds = _dataset()
    assert len(ds) == 100
    assert ds.num_subsets == 5
    assert list(ds.subset_ids(0)) == list(range(1, 21))
    assert list(ds.subset_ids(4)) == list(range(81, 101))


def test_paper_scale_structure():
    ds = _dataset(num_images=50_000, subset_size=10_000, classes=1000,
                  size=32)
    assert ds.num_subsets == 5
    rec = ds.record(1)
    assert rec.filename == "ILSVRC2012_val_00000001.JPEG"
    assert ds.record(50_000).image_id == 50_000


def test_record_validation():
    ds = _dataset()
    with pytest.raises(DatasetError):
        ds.record(0)
    with pytest.raises(DatasetError):
        ds.record(101)
    with pytest.raises(DatasetError):
        ds.subset_ids(5)


def test_labels_balanced():
    ds = _dataset(num_images=100, subset_size=20, classes=10)
    labels = [ds.record(i).label for i in range(1, 101)]
    counts = np.bincount(labels, minlength=10)
    assert np.all(counts == 10)  # perfectly balanced


def test_labels_deterministic():
    a = _dataset()
    b = _dataset()
    assert [a.record(i).label for i in range(1, 101)] == \
           [b.record(i).label for i in range(1, 101)]


def test_record_wnid_matches_vocab():
    ds = _dataset()
    rec = ds.record(5)
    assert ds.vocabulary[rec.label].wnid == rec.wnid


def test_pixels_lazy_and_deterministic():
    ds = _dataset()
    np.testing.assert_array_equal(ds.pixels(7), ds.pixels(7))
    assert ds.pixels(7).shape == (32, 32, 3)


def test_iter_subset_with_limit():
    ds = _dataset()
    recs = list(ds.iter_subset(1, limit=5))
    assert len(recs) == 5
    assert recs[0].image_id == 21


def test_mismatched_vocab_synth_rejected():
    vocab = SynsetVocabulary(num_classes=10)
    synth = ImageSynthesizer(num_classes=5, size=32)
    with pytest.raises(DatasetError):
        ILSVRCValidation(vocab, synth, num_images=10, subset_size=5)


def test_subset_size_must_divide():
    vocab = SynsetVocabulary(num_classes=10)
    synth = ImageSynthesizer(num_classes=10, size=32)
    with pytest.raises(DatasetError):
        ILSVRCValidation(vocab, synth, num_images=100, subset_size=30)


# --- decoder -------------------------------------------------------------------

def test_decoder_produces_pixels_and_tracks_time():
    synth = ImageSynthesizer(num_classes=5, size=32)
    dec = JPEGDecoder(synth)
    img = dec.decode(2, 10)
    np.testing.assert_array_equal(img, synth.sample(2, 10))
    assert dec.stats.images == 1
    assert dec.stats.seconds > 0


def test_decoder_time_scales_with_pixels():
    small = JPEGDecoder(ImageSynthesizer(num_classes=2, size=32))
    large = JPEGDecoder(ImageSynthesizer(num_classes=2, size=128))
    small.decode(0, 1)
    large.decode(0, 1)
    assert large.stats.seconds > small.stats.seconds


# --- preprocessing ---------------------------------------------------------------

def test_resize_identity():
    img = np.random.default_rng(0).integers(
        0, 256, size=(16, 16, 3), dtype=np.uint8).astype(np.uint8)
    out = resize_bilinear(img, 16)
    np.testing.assert_array_equal(out, img)
    assert out is not img  # copy, not view


def test_resize_up_down():
    img = np.zeros((8, 8, 3), dtype=np.uint8)
    img[:4] = 200
    up = resize_bilinear(img, 32)
    assert up.shape == (32, 32, 3)
    assert up[0, 0, 0] == 200 and up[-1, -1, 0] == 0
    down = resize_bilinear(up, 8)
    assert down.shape == (8, 8, 3)


def test_resize_constant_image_preserved():
    img = np.full((10, 10, 3), 77, dtype=np.uint8)
    out = resize_bilinear(img, 23)
    assert np.all(out == 77)


def test_preprocessor_output_shape_and_scale():
    pp = Preprocessor(input_size=32)
    img = np.full((64, 64, 3), 128, dtype=np.uint8)
    out = pp(img)
    assert out.shape == (3, 32, 32)
    assert out.dtype == np.float32
    # value = (128 - mean_bgr[c]) / 128 for each channel
    for c in range(3):
        expected = (128 - ILSVRC2012_MEAN_BGR[c]) / 128
        np.testing.assert_allclose(out[c], expected, rtol=1e-5)


def test_preprocessor_bgr_flip():
    # Pure red RGB image: after RGB->BGR flip, channel 0 (B) is 0 and
    # channel 2 (R) is 255.
    img = np.zeros((8, 8, 3), dtype=np.uint8)
    img[:, :, 0] = 255  # R
    out = Preprocessor(input_size=8, mean_bgr=(0, 0, 0), scale=1.0)(img)
    assert np.all(out[0] == 0)
    assert np.all(out[2] == 255)


def test_preprocessor_batch():
    pp = Preprocessor(input_size=16)
    imgs = [np.zeros((16, 16, 3), dtype=np.uint8) for _ in range(4)]
    batch = pp.batch(imgs)
    assert batch.shape == (4, 3, 16, 16)
    with pytest.raises(DatasetError):
        pp.batch([])


def test_preprocessor_rejects_bad_input():
    pp = Preprocessor(input_size=8)
    with pytest.raises(DatasetError):
        pp(np.zeros((8, 8), dtype=np.uint8))
    with pytest.raises(DatasetError):
        pp(np.zeros((8, 8, 4), dtype=np.uint8))
