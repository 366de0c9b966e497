"""WordNet-like synset vocabulary.

ImageNet organises its classes as WordNet noun synsets ("n02084071 —
dog, domestic dog, canis familiaris").  The synthetic vocabulary keeps
that structure: stable IDs in WordNet's ``nXXXXXXXX`` format, a gloss,
and one or more lemma phrases, generated deterministically from small
word inventories so the full 1000-class vocabulary costs nothing to
build and never changes across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DatasetError

_ADJECTIVES = [
    "crested", "spotted", "striped", "dwarf", "giant", "lesser",
    "greater", "common", "northern", "southern", "eastern", "western",
    "golden", "silver", "red", "blue", "green", "black", "white",
    "mottled", "banded", "horned", "long-tailed", "short-eared",
    "ring-necked",
]

_NOUNS = [
    "terrier", "retriever", "falcon", "heron", "salamander", "beetle",
    "orchid", "maple", "locomotive", "schooner", "harpsichord",
    "abacus", "bridge", "lighthouse", "teapot", "loom", "compass",
    "turbine", "pagoda", "viaduct", "chalice", "quill", "sundial",
    "astrolabe", "zeppelin", "barometer", "kiln", "anvil", "plough",
    "spindle", "lantern", "gondola", "obelisk", "trellis", "bellows",
    "mortar", "sextant", "crucible", "windlass", "davit",
]

_CATEGORIES = ["animal", "plant", "artifact", "instrument", "structure"]


@dataclass(frozen=True)
class Synset:
    """One synthetic WordNet synset."""

    wnid: str
    index: int
    lemmas: tuple[str, ...]
    gloss: str
    category: str

    @property
    def name(self) -> str:
        """Primary lemma."""
        return self.lemmas[0]


class SynsetVocabulary:
    """Deterministic vocabulary of *num_classes* synsets.

    The mapping index <-> wnid is stable for a given ``num_classes``
    and seed, mirroring how ILSVRC fixes its 1000-synset list.
    """

    def __init__(self, num_classes: int = 1000, seed: int = 2012) -> None:
        if num_classes < 1:
            raise DatasetError(
                f"num_classes must be >= 1, got {num_classes}")
        self.num_classes = num_classes
        self.seed = seed
        rng = np.random.default_rng(seed)
        self._synsets: list[Synset] = []
        used: set[str] = set()
        for idx in range(num_classes):
            # WordNet noun offsets start at n00000001; keep them unique
            # and ordered.
            wnid = f"n{(idx + 1) * 7 + 1000000:08d}"
            adj = _ADJECTIVES[int(rng.integers(len(_ADJECTIVES)))]
            noun = _NOUNS[int(rng.integers(len(_NOUNS)))]
            base = f"{adj} {noun}"
            # Disambiguate lemma collisions with a roman-ish suffix.
            lemma = base
            n = 2
            while lemma in used:
                lemma = f"{base} ({n})"
                n += 1
            used.add(lemma)
            category = _CATEGORIES[int(rng.integers(len(_CATEGORIES)))]
            synset = Synset(
                wnid=wnid,
                index=idx,
                lemmas=(lemma, f"{noun}"),
                gloss=f"a {category} of the {adj} {noun} kind",
                category=category,
            )
            self._synsets.append(synset)

    def __len__(self) -> int:
        return self.num_classes

    def __getitem__(self, index: int) -> Synset:
        if not 0 <= index < self.num_classes:
            raise DatasetError(
                f"class index {index} out of range "
                f"[0, {self.num_classes})")
        return self._synsets[index]

    def __iter__(self):
        return iter(self._synsets)
