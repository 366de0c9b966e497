"""Tests for synset vocabulary and image synthesis."""

import numpy as np
import pytest

from repro.data import ImageSynthesizer, SynsetVocabulary
from repro.errors import DatasetError


# --- synsets ---------------------------------------------------------------

def test_vocabulary_size_and_indexing():
    v = SynsetVocabulary(num_classes=100)
    assert len(v) == 100
    assert v[0].index == 0
    assert v[99].index == 99
    with pytest.raises(DatasetError):
        v[100]
    with pytest.raises(DatasetError):
        v[-1]


def test_vocabulary_wnids_unique_and_formatted():
    v = SynsetVocabulary(num_classes=1000)
    wnids = [s.wnid for s in v]
    assert len(set(wnids)) == 1000
    for w in wnids:
        assert w.startswith("n") and len(w) == 9 and w[1:].isdigit()


def test_vocabulary_lemmas_unique():
    v = SynsetVocabulary(num_classes=1000)
    lemmas = [s.name for s in v]
    assert len(set(lemmas)) == 1000


def test_vocabulary_deterministic():
    a = SynsetVocabulary(num_classes=50)
    b = SynsetVocabulary(num_classes=50)
    assert [s.wnid for s in a] == [s.wnid for s in b]
    assert [s.name for s in a] == [s.name for s in b]


def test_vocabulary_validation():
    with pytest.raises(DatasetError):
        SynsetVocabulary(num_classes=0)


# --- generator -----------------------------------------------------------------

def test_template_shape_dtype_range():
    synth = ImageSynthesizer(num_classes=10, size=64)
    t = synth.template(3)
    assert t.shape == (64, 64, 3)
    assert t.dtype == np.uint8


def test_templates_differ_between_classes():
    synth = ImageSynthesizer(num_classes=10, size=32)
    a, b = synth.template(0), synth.template(1)
    assert not np.array_equal(a, b)
    # And substantially so — mean abs difference above noise floor.
    assert np.mean(np.abs(a.astype(int) - b.astype(int))) > 10


def test_template_deterministic_and_cached():
    s1 = ImageSynthesizer(num_classes=5, size=32)
    s2 = ImageSynthesizer(num_classes=5, size=32)
    np.testing.assert_array_equal(s1.template(2), s2.template(2))
    assert s1.template(2) is s1.template(2)  # cache hit


def test_sample_deterministic():
    synth = ImageSynthesizer(num_classes=5, size=32, noise_sigma=30)
    a = synth.sample(1, image_id=42)
    b = synth.sample(1, image_id=42)
    np.testing.assert_array_equal(a, b)


def test_samples_differ_by_image_id():
    synth = ImageSynthesizer(num_classes=5, size=32, noise_sigma=30)
    assert not np.array_equal(synth.sample(1, 1), synth.sample(1, 2))


def test_sample_zero_noise_stays_near_template():
    synth = ImageSynthesizer(num_classes=5, size=32, noise_sigma=0)
    t = synth.template(0).astype(float)
    s = synth.sample(0, 7).astype(float)
    # Only jitter (shift/brightness) remains; correlation stays high.
    corr = np.corrcoef(t.ravel(), s.ravel())[0, 1]
    assert corr > 0.5


def test_noise_scales_sample_distance():
    low = ImageSynthesizer(num_classes=5, size=32, noise_sigma=5)
    high = low.with_noise(80)
    t = low.template(0).astype(float)
    d_low = np.abs(low.sample(0, 3).astype(float) - t).mean()
    d_high = np.abs(high.sample(0, 3).astype(float) - t).mean()
    assert d_high > d_low


def test_with_noise_shares_template_cache():
    base = ImageSynthesizer(num_classes=5, size=32)
    base.template(0)
    clone = base.with_noise(99)
    assert clone._template_cache is base._template_cache
    np.testing.assert_array_equal(clone.template(0), base.template(0))


def test_generator_validation():
    with pytest.raises(DatasetError):
        ImageSynthesizer(num_classes=0, size=32)
    with pytest.raises(DatasetError):
        ImageSynthesizer(num_classes=5, size=4)
    with pytest.raises(DatasetError):
        ImageSynthesizer(num_classes=5, size=32, noise_sigma=-1)
    synth = ImageSynthesizer(num_classes=5, size=32)
    with pytest.raises(DatasetError):
        synth.template(5)
