"""The fixed material vocabulary and label sets attached to components and samples.

The five materials have a fixed canonical order; argmax tie-breaking and every
array whose axis runs over materials follow it.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

MATERIALS: tuple[str, ...] = ("wood", "plastic", "metal", "glass", "fabric")
MATERIAL_INDEX: dict[str, int] = {name: i for i, name in enumerate(MATERIALS)}
NUM_MATERIALS = len(MATERIALS)


def material_indices(names) -> tuple[int, ...]:
    """Positions of ``names`` in MATERIALS; any other name raises ValueError."""
    for name in names:
        if name not in MATERIAL_INDEX:
            raise ValueError(f"unknown material {name!r}")
    return tuple(MATERIAL_INDEX[name] for name in names)


def multihot(label_sets, materials=MATERIALS) -> np.ndarray:
    """(n, len(materials)) 0/1 array: row i marks the names of the i-th label
    set that are in ``materials``. A None set marks nothing."""
    label_sets = list(label_sets)
    out = np.zeros((len(label_sets), len(materials)))
    for i, names in enumerate(label_sets):
        for name in names or ():
            if name in materials:
                out[i, materials.index(name)] = 1.0
    return out


def label_map(doc: dict) -> dict[str, list[str]]:
    """A {part: [material names]} map, returned as is; ValueError unless
    every value is a list of names in MATERIALS."""
    for names in doc.values():
        if type(names) is not list:
            raise ValueError(f"expected a list of materials, got {names!r}")
        material_indices(names)
    return doc


class MaterialLabelSet:
    """Immutable set of material labels, stored as a bitmask over MATERIALS.

    Multi-material ground truth such as "metal or plastic" is a set with two
    bits on. Equality, hashing and iteration follow the canonical order.
    """

    __slots__ = ("_mask",)

    def __init__(self, names: Iterable[str] = ()):
        mask = 0
        for name in names:
            try:
                mask |= 1 << MATERIAL_INDEX[name]
            except KeyError:
                raise ValueError(f"unknown material {name!r}; expected one of {MATERIALS}") from None
        self._mask = mask

    def __contains__(self, name: str) -> bool:
        idx = MATERIAL_INDEX.get(name)
        return idx is not None and bool(self._mask >> idx & 1)

    def __iter__(self) -> Iterator[str]:
        for i, name in enumerate(MATERIALS):
            if self._mask >> i & 1:
                yield name

    def __len__(self) -> int:
        return bin(self._mask).count("1")

    def __bool__(self) -> bool:
        return self._mask != 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MaterialLabelSet) and self._mask == other._mask

    def __hash__(self) -> int:
        return hash(self._mask)

    def __repr__(self) -> str:
        return f"MaterialLabelSet({list(self)})"

    def names(self) -> tuple[str, ...]:
        return tuple(self)


EMPTY_LABELS = MaterialLabelSet()
