"""Parametric furniture meshes with known labels, symmetry, and noise.

Generators are fully deterministic per (spec, seed). The table places its
legs as exact rotated copies about the upright axis, so with zero jitter
the n-fold rotational symmetry holds to machine precision. The "pinwheel"
top and "prism" (tapered scalene) legs are chiral solids: a table built
from them has exactly the n-1 nontrivial rotations and no reflective
symmetry, which makes detector output enumerable in tests.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InterchangeError
from .jsonl import one_of, read_json, write_json
from .materials import MaterialLabelSet, label_map, multihot
from .mesh import LabeledMesh, bounding_sphere, build_mesh, y_rotation

CATEGORIES = ("table", "chair", "cabinet")
LEG_SHAPES = ("cylinder", "box", "prism")
TOP_SHAPES = ("square", "round", "pinwheel")

# chiral quad cross-section, vertices in increasing angle about origin;
# angular gaps (50/70/100/140) and radii are chosen so the reversed
# sequence is far from every rotation of itself: mirrored or mis-rotated
# copies misfit by a large fraction of the profile size
_SCALENE = np.array(
    [[1.3, 0.0], [0.321, 0.383], [-0.475, 0.823], [-0.536, -0.45]]
)
# same idea per quadrant: gaps 10/17/28/35 with non-palindromic radii
_PINWHEEL_ANGLES = (0.0, 10.0, 27.0, 55.0)
_PINWHEEL_RADII = (1.0, 0.4, 0.8, 0.55)

DEFAULT_MATERIALS = {
    "table": {"top": ["wood"], "leg": ["metal"]},
    "chair": {"seat": ["fabric"], "back": ["wood"], "leg": ["metal"]},
    "cabinet": {"body": ["wood"], "door": ["glass"], "knob": ["metal"]},
}


@dataclass
class SynthSpec:
    """Recipe for one synthetic shape."""

    category: str = "table"
    legs: int = 4
    leg_shape: str = "prism"
    top_shape: str = "pinwheel"
    materials: dict[str, list[str]] = field(default_factory=dict)
    jitter: float = 0.0
    seed: int = 0


def _jitter(value) -> float:
    if value < 0:
        raise ValueError(f"jitter {value!r} is negative")
    return float(value)


def _seed(value: int) -> int:
    if value < 0:
        raise ValueError(f"seed {value} is negative")
    return value


# a spec document names every field of SynthSpec
_SPEC_FIELDS = {
    "category": (str, one_of(*CATEGORIES)),
    "legs": int,
    "leg_shape": (str, one_of(*LEG_SHAPES)),
    "top_shape": (str, one_of(*TOP_SHAPES)),
    "materials": (dict, label_map),
    "jitter": (float, _jitter),
    "seed": (int, _seed),
}


def save_spec(path: str, spec: SynthSpec) -> None:
    write_json(path, asdict(spec))


def load_spec(path: str) -> SynthSpec:
    doc = read_json(path, _SPEC_FIELDS)
    spec = SynthSpec(**{key: doc[key] for key in _SPEC_FIELDS})
    try:
        _check_legs(spec)
    except ValueError as exc:
        raise InterchangeError(path, str(exc)) from None
    return spec


def _check_legs(spec: SynthSpec) -> None:
    if spec.legs < 1:
        raise ValueError(f"legs {spec.legs} is below 1")
    if spec.category == "chair" and spec.legs > 4:
        raise ValueError(f"a chair has at most 4 legs, got {spec.legs}")


def _prism(
    poly: np.ndarray,
    y0: float,
    y1: float,
    taper: float = 1.0,
    apex_lift: float = 0.0,
    twist: float = 0.0,
):
    """Extrude an xz polygon from y0 to y1.

    The polygon must list vertices in increasing angle about the origin
    (radial polygons are star-shaped there, which keeps the cap fans
    valid). The top ring shrinks by ``taper`` and rotates by ``twist``
    about the origin; the top cap apex rises by ``apex_lift``. Twist and
    taper make the solid chiral: a mirrored copy twists the wrong way and
    flipping it upside down reverses the taper. Windings face outward.
    """
    k = len(poly)
    c, s = math.cos(twist), math.sin(twist)
    top2d = taper * (poly @ np.array([[c, s], [-s, c]]))
    verts = np.zeros((2 * k + 2, 3))
    verts[:k, 0] = poly[:, 0]
    verts[:k, 1] = y0
    verts[:k, 2] = poly[:, 1]
    verts[k : 2 * k, 0] = top2d[:, 0]
    verts[k : 2 * k, 1] = y1
    verts[k : 2 * k, 2] = top2d[:, 1]
    verts[2 * k] = [0.0, y0, 0.0]
    verts[2 * k + 1] = [0.0, y1 + apex_lift, 0.0]

    faces = []
    cb, ct = 2 * k, 2 * k + 1
    for i in range(k):
        j = (i + 1) % k
        faces.append([cb, i, j])            # bottom cap, outward -y
        faces.append([ct, k + j, k + i])    # top cap, outward +y
        faces.append([i, k + i, k + j])     # wall
        faces.append([i, k + j, j])
    return verts, np.array(faces, dtype=np.int64)


def _box(lo, hi):
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    x0, y0, z0 = lo
    x1, y1, z1 = hi
    verts = np.array(
        [
            [x0, y0, z0], [x0, y0, z1], [x0, y1, z0], [x0, y1, z1],
            [x1, y0, z0], [x1, y0, z1], [x1, y1, z0], [x1, y1, z1],
        ]
    )
    faces = np.array(
        [
            [0, 1, 3], [0, 3, 2],
            [4, 6, 7], [4, 7, 5],
            [0, 4, 5], [0, 5, 1],
            [2, 3, 7], [2, 7, 6],
            [0, 2, 6], [0, 6, 4],
            [1, 5, 7], [1, 7, 3],
        ],
        dtype=np.int64,
    )
    return verts, faces


def _circle(radius: float, n: int = 16) -> np.ndarray:
    theta = 2.0 * np.pi * np.arange(n) / n
    return radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)


def _pinwheel(radius: float) -> np.ndarray:
    """Chiral 4-fold star: one quadrant of vertices plus exact 90-degree copies."""
    quad = np.array(
        [
            [r * radius * math.cos(math.radians(a)), r * radius * math.sin(math.radians(a))]
            for a, r in zip(_PINWHEEL_ANGLES, np.array(_PINWHEEL_RADII) / _PINWHEEL_RADII[0])
        ]
    )
    rings = [quad]
    for _ in range(3):
        prev = rings[-1]
        rings.append(np.stack([-prev[:, 1], prev[:, 0]], axis=1))
    return np.vstack(rings)


def _exact_quarter_turns(quarter_turns: int) -> np.ndarray:
    """y_rotation(-quarter_turns * pi / 2) with exact 0/1 entries, free of
    the rounding in cos and sin."""
    r = np.eye(3)
    for _ in range(quarter_turns % 4):
        r = np.array([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]) @ r
    return r


def _leg_geometry(shape: str, size: float, height: float):
    if shape == "box":
        return _box([-size, 0.0, -size], [size, height, size])
    if shape == "cylinder":
        return _prism(_circle(size), 0.0, height)
    if shape == "prism":
        return _prism(size * _SCALENE, 0.0, height, taper=0.5, twist=math.radians(30.0))
    raise ValueError(f"unknown leg shape {shape!r}")


def _top_polygon(shape: str, radius: float) -> np.ndarray:
    if shape == "square":
        s = radius / math.sqrt(2.0)
        return np.array([[s, s], [-s, s], [-s, -s], [s, -s]])
    if shape == "round":
        return _circle(radius)
    if shape == "pinwheel":
        return _pinwheel(radius)
    raise ValueError(f"unknown top shape {shape!r}")


class _Builder:
    def __init__(self):
        self.verts: list[np.ndarray] = []
        self.faces: list[np.ndarray] = []
        self.face_component: list[np.ndarray] = []
        self.names: list[str] = []
        self.labels: list[MaterialLabelSet] = []
        self._offset = 0

    def add(self, name: str, labels: list[str], verts: np.ndarray, faces: np.ndarray):
        cid = len(self.names)
        self.names.append(name)
        self.labels.append(MaterialLabelSet(labels))
        self.verts.append(verts)
        self.faces.append(faces + self._offset)
        self.face_component.append(np.full(len(faces), cid, dtype=np.int64))
        self._offset += len(verts)

    def build(self, jitter: float, seed: int) -> LabeledMesh:
        verts = np.vstack(self.verts)
        if jitter > 0.0:
            radius = bounding_sphere(verts)[1]
            rng = np.random.default_rng(seed)
            verts = verts + rng.uniform(-jitter * radius, jitter * radius, size=verts.shape)
        return build_mesh(
            verts,
            np.vstack(self.faces),
            self.names,
            np.concatenate(self.face_component),
            labels=tuple(self.labels),
        )


def _materials_for(spec: SynthSpec, part: str) -> list[str]:
    base = part.rsplit("_", 1)[0]
    if part in spec.materials:
        return spec.materials[part]
    if base in spec.materials:
        return spec.materials[base]
    return DEFAULT_MATERIALS[spec.category].get(base, ["wood"])


def _table(spec: SynthSpec) -> _Builder:
    b = _Builder()
    leg_v, leg_f = _leg_geometry(spec.leg_shape, 0.3 if spec.leg_shape == "prism" else 0.16, 0.85)
    base = leg_v + np.array([0.58, 0.0, 0.0])
    n = spec.legs
    for k in range(n):
        if n == 4:
            r = _exact_quarter_turns(k)
        else:
            r = y_rotation(-2.0 * np.pi * k / n)
        b.add(f"leg_{k}", _materials_for(spec, f"leg_{k}"), base @ r.T, leg_f)
    top_v, top_f = _prism(_top_polygon(spec.top_shape, 0.95), 0.85, 1.0, taper=0.88, apex_lift=0.1)
    b.add("top", _materials_for(spec, "top"), top_v, top_f)
    return b


def _chair(spec: SynthSpec) -> _Builder:
    b = _Builder()
    leg_v, leg_f = _leg_geometry(spec.leg_shape, 0.08, 0.42)
    spots = [(0.38, -0.38), (-0.38, -0.38), (-0.38, 0.38), (0.38, 0.38)]
    for k, (x, z) in enumerate(spots[: spec.legs]):
        b.add(f"leg_{k}", _materials_for(spec, f"leg_{k}"), leg_v + np.array([x, 0.0, z]), leg_f)
    seat_v, seat_f = _box([-0.5, 0.42, -0.5], [0.5, 0.52, 0.5])
    b.add("seat", _materials_for(spec, "seat"), seat_v, seat_f)
    back_v, back_f = _box([-0.5, 0.52, 0.38], [0.5, 1.15, 0.5])
    b.add("back", _materials_for(spec, "back"), back_v, back_f)
    return b


def _cabinet(spec: SynthSpec) -> _Builder:
    b = _Builder()
    body_v, body_f = _box([-0.55, 0.0, -0.35], [0.55, 1.2, 0.3])
    b.add("body", _materials_for(spec, "body"), body_v, body_f)
    for k, (x0, x1) in enumerate([(-0.52, -0.03), (0.03, 0.52)]):
        door_v, door_f = _box([x0, 0.06, 0.3], [x1, 1.14, 0.36])
        b.add(f"door_{k}", _materials_for(spec, f"door_{k}"), door_v, door_f)
    for k, x in enumerate([-0.1, 0.1]):
        knob_v, knob_f = _box([x - 0.03, 0.56, 0.36], [x + 0.03, 0.64, 0.42])
        b.add(f"knob_{k}", _materials_for(spec, f"knob_{k}"), knob_v, knob_f)
    return b


def generate(spec: SynthSpec) -> LabeledMesh:
    """Build the labeled mesh described by a spec; deterministic throughout.

    A spec with fewer than one leg, or a chair with more than four, is a
    ValueError.
    """
    if spec.category not in CATEGORIES:
        raise ValueError(f"unknown category {spec.category!r}")
    _check_legs(spec)
    if spec.category == "table":
        builder = _table(spec)
    elif spec.category == "chair":
        builder = _chair(spec)
    else:
        builder = _cabinet(spec)
    return builder.build(spec.jitter, spec.seed)


def mirrored_chair_fixture() -> LabeledMesh:
    """Two chiral half-chair components related by exactly one mirror.

    The right half is the x-mirror of the left; each half merges a half
    seat, a half back, and two differently rotated tapered scalene legs,
    so neither half has any self-symmetry and no proper rotation maps one
    onto the other.
    """
    seat = _box([0.04, 0.42, -0.45], [0.52, 0.5, 0.4])
    back = _box([0.04, 0.5, 0.32], [0.52, 1.05, 0.4])
    leg_v, leg_f = _prism(0.12 * _SCALENE, 0.0, 0.42, taper=0.5, twist=math.radians(30.0))
    front = leg_v + np.array([0.4, 0.0, -0.36])
    rear = (leg_v @ y_rotation(-math.radians(40.0)).T) + np.array([0.4, 0.0, 0.33])

    verts_list, faces_list = [], []
    offset = 0
    for v, f in [seat, back, (front, leg_f), (rear, leg_f)]:
        verts_list.append(v)
        faces_list.append(f + offset)
        offset += len(v)
    left_v = np.vstack(verts_list)
    left_f = np.vstack(faces_list)

    right_v = left_v * np.array([-1.0, 1.0, 1.0])
    right_f = left_f[:, [0, 2, 1]]  # mirrored geometry needs flipped winding

    b = _Builder()
    b.add("left", ["wood"], left_v, left_f)
    b.add("right", ["wood"], right_v, right_f)
    return b.build(0.0, 0)


DEFAULT_CONFUSION = np.array(
    [
        # wood  plastic metal  glass  fabric
        [0.10, 0.10, 0.10, 0.60, 0.10],  # wood -> glass
        [0.10, 0.10, 0.60, 0.10, 0.10],  # plastic -> metal
        [0.10, 0.60, 0.10, 0.10, 0.10],  # metal -> plastic
        [0.60, 0.10, 0.10, 0.10, 0.10],  # glass -> wood
        [0.10, 0.60, 0.10, 0.10, 0.10],  # fabric -> plastic
    ]
)


def corrupt_unaries(
    truths: np.ndarray,
    noise_rate: float,
    seed: int = 0,
) -> np.ndarray:
    """Simulated classifier probabilities: 0.9 on a chosen label, rest even.

    ``truths`` is an (n, M) 0/1 array or a list of n label sets. With
    probability 1 - noise_rate the chosen label is a true one (uniformly
    among the truth set); otherwise it is drawn from the confusion row of a
    uniformly chosen true label (DEFAULT_CONFUSION). Rows sum to 1.
    """
    if not 0.0 <= noise_rate <= 1.0:
        raise ValueError("noise_rate must lie in [0, 1]")
    if not isinstance(truths, np.ndarray):
        truths = multihot(truths)
    truths = np.asarray(truths, dtype=np.float64)
    n, m = truths.shape
    rng = np.random.default_rng(seed)
    rest = 0.1 / (m - 1)
    out = np.full((n, m), rest)
    for i in range(n):
        true_idx = np.flatnonzero(truths[i] > 0)
        if len(true_idx) == 0:
            true_idx = np.arange(m)
        anchor = int(rng.choice(true_idx))
        if rng.random() < noise_rate:
            hot = int(rng.choice(m, p=DEFAULT_CONFUSION[anchor]))
        else:
            hot = anchor
        out[i, hot] = 0.9
    return out


def benchmark_suite() -> list[SynthSpec]:
    """30 shapes: 12 tables, 12 chairs, 6 cabinets across material mixes."""
    specs = []
    # single-label assignments only: a component whose truth carries two
    # materials splits its unary anchors between them, so neither reaches
    # an on-majority and coherent smoothing votes both off
    table_mats = [
        {"top": ["wood"], "leg": ["metal"]},
        {"top": ["glass"], "leg": ["metal"]},
        {"top": ["wood"], "leg": ["wood"]},
        {"top": ["plastic"], "leg": ["metal"]},
    ]
    for i in range(12):
        specs.append(
            SynthSpec(
                category="table",
                legs=4,
                leg_shape=LEG_SHAPES[i % 3],
                top_shape=TOP_SHAPES[i % 3],
                materials=table_mats[i % 4],
                seed=100 + i,
            )
        )
    chair_mats = [
        {"seat": ["fabric"], "back": ["fabric"], "leg": ["wood"]},
        {"seat": ["plastic"], "back": ["plastic"], "leg": ["metal"]},
        {"seat": ["fabric"], "back": ["wood"], "leg": ["metal"]},
        {"seat": ["wood"], "back": ["wood"], "leg": ["wood"]},
    ]
    for i in range(12):
        specs.append(
            SynthSpec(
                category="chair",
                legs=4,
                leg_shape=LEG_SHAPES[i % 2],  # box or cylinder legs
                materials=chair_mats[i % 4],
                seed=150 + i,
            )
        )
    cabinet_mats = [
        {"body": ["wood"], "door": ["glass"], "knob": ["metal"]},
        {"body": ["plastic"], "door": ["plastic"], "knob": ["metal"]},
        {"body": ["wood"], "door": ["wood"], "knob": ["wood"]},
    ]
    for i in range(6):
        specs.append(
            SynthSpec(
                category="cabinet",
                materials=cabinet_mats[i % 3],
                seed=180 + i,
            )
        )
    return specs
