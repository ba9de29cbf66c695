"""Benchmark inputs: shape lists, jitter seeds, built-in symmetries, subdivision.

Every shape is a ``benchmark_suite()`` spec with a small vertex jitter and a
seed of its own, so no two shapes of a run share geometry (the suite's specs
alone build only six distinct meshes). The built-in symmetries are the ones
the generator constructs: quarter turns about the upright axis for tables,
the x-mirror for chairs and cabinets.
"""

from __future__ import annotations

import dataclasses

import numpy as np

JITTER = 0.002

# indices into benchmark_suite(); see README.md for what each one is
LABEL_TRAIN = (0, 4, 8, 12, 13, 24)
LABEL_HELDOUT = (2, 11, 15, 17, 19, 21, 23)
TRAIN_CRF = (0, 1, 2, 3, 12, 13, 14, 15, 24, 25, 26, 27)
DENSE = (2, 5, 12)
DENSE_LEVELS = 2


def jittered(spec, seed: int, index: int):
    """The spec with benchmark jitter and a per-run, per-shape seed."""
    return dataclasses.replace(spec, jitter=JITTER, seed=seed * 1000 + index)


def builtin_rotations(category: str) -> list[np.ndarray]:
    """3x3 matrices of the symmetries the generator builds into a category."""
    if category == "table":
        quarter = np.array([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        return [np.linalg.matrix_power(quarter, k) for k in (1, 2, 3)]
    return [np.diag([-1.0, 1.0, 1.0])]


def builtin_symmetries(mesh, category: str):
    """DetectedSymmetry records for the built-in transforms, one per component.

    Each component is paired with the component whose vertex centroid lies
    nearest to its own transformed centroid.
    """
    from matseg.symmetry import DetectedSymmetry, RigidTransform

    cents = np.array([
        mesh.vertices[np.unique(mesh.faces[mesh.component_faces(c)])].mean(axis=0)
        for c in range(mesh.n_components)
    ])
    out = []
    for tid, rot in enumerate(builtin_rotations(category)):
        t = RigidTransform(rot, np.zeros(3))
        moved = t.apply(cents)
        for c in range(mesh.n_components):
            target = int(np.argmin(np.linalg.norm(cents - moved[c], axis=1)))
            out.append(DetectedSymmetry(t, c, target, 0.0, tid))
    return out


def leg_pairs(mesh, pairs) -> list[tuple[int, int]]:
    """Symmetry face pairs whose both faces lie on legs (criterion 7)."""
    legs = {c for c, name in enumerate(mesh.component_names) if name.startswith("leg")}
    fc = mesh.face_component
    return [(p.face_a, p.face_b) for p in pairs if fc[p.face_a] in legs and fc[p.face_b] in legs]


def subdivide(mesh):
    """1:4 midpoint subdivision; children keep their parent's component.

    Shared edges get one midpoint, so the surface stays connected and
    faces of a component stay contiguous (save_obj keeps face order).
    """
    from matseg.mesh import build_mesh

    v, f = mesh.vertices, mesh.faces
    n = len(f)
    edges = np.sort(np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]]), axis=1)
    uniq, inv = np.unique(edges, axis=0, return_inverse=True)
    inv = inv.reshape(-1) + len(v)
    m01, m12, m20 = inv[:n], inv[n : 2 * n], inv[2 * n :]
    a, b, c = f[:, 0], f[:, 1], f[:, 2]
    children = np.stack([
        np.stack([a, m01, m20], axis=1),
        np.stack([m01, b, m12], axis=1),
        np.stack([m20, m12, c], axis=1),
        np.stack([m01, m12, m20], axis=1),
    ], axis=1).reshape(-1, 3)
    verts = np.vstack([v, 0.5 * (v[uniq[:, 0]] + v[uniq[:, 1]])])
    return build_mesh(
        verts, children, mesh.component_names,
        np.repeat(mesh.face_component, 4), labels=mesh.labels,
    )


def truth_matrix(mesh, materials) -> np.ndarray:
    """(material, face) 0/1 truth from the mesh's component labels."""
    out = np.zeros((len(materials), mesh.n_faces))
    for c, labels in enumerate(mesh.labels):
        faces = np.flatnonzero(mesh.face_component == c)
        for name in labels or ():
            out[materials.index(name), faces] = 1.0
    return out
