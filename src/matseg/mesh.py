"""Indexed triangle meshes with named components, plus face pairs.

A mesh is immutable after construction: geometry-derived quantities (normals,
areas, bounding sphere) are computed once. Components come from OBJ groups and
are the unit at which ground-truth material labels attach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse import csr_matrix, triu

from .errors import EmptyMeshError, MalformedObjError, NonFiniteGeometryError, UnknownComponentError
from .jsonl import read_json, write_json
from .materials import MaterialLabelSet, label_map

UPRIGHT_AXIS = np.array([0.0, 1.0, 0.0])


def y_rotation(angle: float) -> np.ndarray:
    """Rotation by ``angle`` about the upright axis, right-handed."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def bounding_sphere(vertices: np.ndarray) -> tuple[np.ndarray, float]:
    """Center of the axis-aligned bounding box, and the radius of the sphere
    about it that contains every vertex."""
    center = 0.5 * (vertices.min(axis=0) + vertices.max(axis=0))
    return center, float(np.linalg.norm(vertices - center, axis=1).max())


@dataclass(frozen=True)
class LabeledMesh:
    """Triangle mesh with named face components and optional per-component labels.

    Attributes
    ----------
    vertices : (V, 3) float array
    faces : (F, 3) int array of vertex indices
    component_names : names in deterministic (file/creation) order
    face_component : (F,) int array mapping each face to a component index
    labels : per-component MaterialLabelSet or None when unlabeled
    face_normals : (F, 3) unit vectors (degenerate faces borrow neighbor normals)
    face_areas : (F,) non-negative areas
    bounding_center, bounding_radius : sphere containing all vertices
    """

    vertices: np.ndarray
    faces: np.ndarray
    component_names: tuple[str, ...]
    face_component: np.ndarray
    labels: tuple[MaterialLabelSet | None, ...]
    face_normals: np.ndarray = field(repr=False)
    face_areas: np.ndarray = field(repr=False)
    bounding_center: np.ndarray = field(repr=False)
    bounding_radius: float = field(repr=False)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @property
    def n_components(self) -> int:
        return len(self.component_names)

    def component_faces(self, component: int | str) -> np.ndarray:
        """Face indices belonging to the given component (by index or name)."""
        if isinstance(component, str):
            component = self.component_names.index(component)
        return np.flatnonzero(self.face_component == component)

    def face_centroids(self) -> np.ndarray:
        return self.vertices[self.faces].mean(axis=1)

    def face_label_set(self, face: int) -> MaterialLabelSet | None:
        return self.labels[self.face_component[face]]

    def total_area(self) -> float:
        return float(self.face_areas.sum())


def build_mesh(
    vertices: np.ndarray,
    faces: np.ndarray,
    component_names: tuple[str, ...] | list[str],
    face_component: np.ndarray,
    labels: tuple[MaterialLabelSet | None, ...] | None = None,
) -> LabeledMesh:
    """Validate raw arrays and derive normals, areas and the bounding sphere."""
    vertices = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    face_component = np.asarray(face_component, dtype=np.int64)
    if len(faces) == 0:
        raise EmptyMeshError("mesh has no faces")
    finite = np.isfinite(vertices).all(axis=1)
    if not finite.all():
        raise NonFiniteGeometryError(f"vertex {int(np.argmin(finite))} has a non-finite coordinate")
    if faces.min() < 0 or faces.max() >= len(vertices):
        raise ValueError("face references a vertex out of range")
    if len(face_component) != len(faces):
        raise ValueError("face_component length must match face count")
    if face_component.min() < 0 or face_component.max() >= len(component_names):
        raise ValueError("face_component references a missing component")
    if labels is None:
        labels = tuple(None for _ in component_names)

    tri = vertices[faces]
    cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    cross_norm = np.linalg.norm(cross, axis=1)
    areas = 0.5 * cross_norm

    center, radius = bounding_sphere(vertices)
    scale = max(radius, 1e-300)

    degenerate = cross_norm <= 1e-12 * scale * scale
    normals = np.zeros_like(cross)
    ok = ~degenerate
    normals[ok] = cross[ok] / cross_norm[ok, None]
    if degenerate.any():
        normals = _repair_degenerate_normals(faces, normals, areas, degenerate)

    return LabeledMesh(
        vertices=vertices,
        faces=faces,
        component_names=tuple(component_names),
        face_component=face_component,
        labels=tuple(labels),
        face_normals=normals,
        face_areas=areas,
        bounding_center=center,
        bounding_radius=radius,
    )


def _repair_degenerate_normals(faces, normals, areas, degenerate):
    """Give zero-area faces the area-weighted average of edge-neighbor normals.

    Slivers are kept (dropping faces would break component indexing); a face
    with no usable neighbor falls back to the upright axis. A neighbor counts
    once per pair of edge slots the two faces share; degenerate faces still
    have zero normals here, so they lend nothing.
    """
    acc = (_shared_edges(faces) @ (areas[:, None] * normals))[degenerate]
    norm = np.linalg.norm(acc, axis=1)[:, None]
    normals = normals.copy()
    normals[degenerate] = np.where(norm > 1e-300, acc / np.maximum(norm, 1e-300), UPRIGHT_AXIS)
    return normals


def _shared_edges(faces: np.ndarray) -> csr_matrix:
    """(F, F) matrix whose entry (a, b) counts the pairs of edge slots, one
    of a's and one of b's, on the same undirected edge: the table of every
    face's three sorted edge rows against the face that owns them, times its
    transpose."""
    edges = np.sort(faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    _, edge = np.unique(edges[:, 0] * (faces.max() + 1) + edges[:, 1], return_inverse=True)
    slots = csr_matrix((np.ones(len(edges)), (np.arange(len(edges)) // 3, edge)))
    return slots @ slots.T


def load_obj(path: str) -> LabeledMesh:
    """Load a Wavefront OBJ, turning groups into components.

    Only v/f/g directives matter; vn/vt/usemtl and friends are skipped.
    Polygons with more than three vertices are fan-triangulated. Faces that
    appear before any ``g`` directive land in a component called "default".
    """
    vertices: list[list[float]] = []
    faces: list[list[int]] = []
    face_component: list[int] = []
    component_names: list[str] = []
    component_index: dict[str, int] = {}

    def component_id(name: str) -> int:
        if name not in component_index:
            component_index[name] = len(component_names)
            component_names.append(name)
        return component_index[name]

    current = None
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            tag = parts[0]
            if tag == "v":
                if len(parts) < 4:
                    raise MalformedObjError(path, "vertex needs 3 coordinates", lineno)
                try:
                    xyz = [float(parts[1]), float(parts[2]), float(parts[3])]
                except ValueError:
                    raise MalformedObjError(path, "bad vertex coordinate", lineno) from None
                if not all(map(math.isfinite, xyz)):
                    raise MalformedObjError(path, "non-finite vertex coordinate", lineno)
                vertices.append(xyz)
            elif tag == "g" or tag == "o":
                name = " ".join(parts[1:]) if len(parts) > 1 else "default"
                current = component_id(name)
            elif tag == "f":
                idx = []
                for tok in parts[1:]:
                    head = tok.split("/", 1)[0]
                    try:
                        v = int(head)
                    except ValueError:
                        raise MalformedObjError(path, f"bad face index {head!r}", lineno) from None
                    if v == 0:
                        raise MalformedObjError(path, "OBJ face indices are 1-based; got 0", lineno)
                    if v < 0:
                        v = len(vertices) + 1 + v  # relative indexing
                    if not 1 <= v <= len(vertices):
                        raise MalformedObjError(path, f"face index {v} out of range", lineno)
                    idx.append(v - 1)
                if len(idx) < 3:
                    raise MalformedObjError(path, "face needs at least 3 vertices", lineno)
                if current is None:
                    current = component_id("default")
                for k in range(1, len(idx) - 1):  # fan triangulation
                    faces.append([idx[0], idx[k], idx[k + 1]])
                    face_component.append(current)
            # vn, vt, s, usemtl, mtllib: ignored

    if not faces:
        raise EmptyMeshError(f"{path}: no faces found")
    return build_mesh(np.array(vertices), np.array(faces), component_names, np.array(face_component))


def attach_labels(mesh: LabeledMesh, label_doc: dict[str, list[str]]) -> LabeledMesh:
    """Return a copy of the mesh with component labels from a label document.

    The document maps component names to material-name lists; components not
    named keep no label. Naming a missing component is an error.
    """
    labels = list(mesh.labels)
    for name, material_names in label_doc.items():
        if name not in mesh.component_names:
            raise UnknownComponentError(
                f"label document names component {name!r}, mesh has {list(mesh.component_names)}"
            )
        labels[mesh.component_names.index(name)] = MaterialLabelSet(material_names)
    return replace(mesh, labels=tuple(labels))


def save_obj(path: str, mesh: LabeledMesh) -> None:
    """Write the mesh as OBJ with one ``g`` group per component.

    Floats use their shortest round-trip representation, so identical
    meshes serialize byte-identically.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for v in mesh.vertices:
            fh.write(f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
        for c, name in enumerate(mesh.component_names):
            fh.write(f"g {name}\n")
            for f in mesh.component_faces(c):
                a, b, d = (int(i) + 1 for i in mesh.faces[f])
                fh.write(f"f {a} {b} {d}\n")


def save_labels(path: str, mesh: LabeledMesh) -> None:
    """Write component material labels as JSON: {labels: {name: [materials]}}."""
    write_json(path, {"labels": {
        name: list(mesh.labels[c].names())
        for c, name in enumerate(mesh.component_names)
        if mesh.labels[c] is not None
    }})


def load_labels(path: str) -> dict[str, list[str]]:
    """Read a labels document written by save_labels; every material must be
    one of MATERIALS, else InterchangeError names the file."""
    return read_json(path, {"labels": (dict, label_map)})["labels"]


@dataclass(frozen=True)
class FacePairs:
    """Unordered face pairs with one value each.

    pairs : (E, 2) int64 array, rows (f, f') with f < f' in increasing order
    value : (E,) float array, e.g. the dihedral term of edge-sharing faces
        or the normalized geodesic distance of geodesically close ones
    """

    pairs: np.ndarray
    value: np.ndarray

    def __len__(self) -> int:
        return len(self.pairs)


def first_per_pair(a: np.ndarray, b: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Row indices of one row per unordered pair {a, b}, in increasing pair
    order: the row with the smallest key, the first such row on ties."""
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    order = np.lexsort((key, hi, lo))  # stable, so equal keys keep row order
    first = np.ones(len(order), dtype=bool)
    first[1:] = (np.diff(lo[order]) != 0) | (np.diff(hi[order]) != 0)
    return order[first]


def compute_adjacency(mesh: LabeledMesh) -> FacePairs:
    """Edge-sharing face pairs, each with the angle between the two face
    normals divided by pi, in [0, 1].

    Non-manifold edges (more than two incident faces) connect every incident
    face pair, so smoothing still flows across repository-mesh defects.
    """
    upper = triu(_shared_edges(mesh.faces), k=1).tocoo()
    order = np.lexsort((upper.col, upper.row))
    pairs = np.stack([upper.row[order], upper.col[order]], axis=1).astype(np.int64)
    dots = np.einsum("ij,ij->i", mesh.face_normals[pairs[:, 0]], mesh.face_normals[pairs[:, 1]])
    return FacePairs(pairs=pairs, value=np.arccos(np.clip(dots, -1.0, 1.0)) / np.pi)
