"""Indexed triangle meshes with named components, plus face adjacency.

A mesh is immutable after construction: geometry-derived quantities (normals,
areas, bounding sphere) are computed once. Components come from OBJ groups and
are the unit at which ground-truth material labels attach.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyMeshError, MalformedObjError, NonFiniteGeometryError, UnknownComponentError
from .materials import MaterialLabelSet

logger = logging.getLogger(__name__)

UPRIGHT_AXIS = np.array([0.0, 1.0, 0.0])


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
        raise MalformedObjError("face references a vertex out of range", line=0)
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

    lo, hi = vertices.min(axis=0), vertices.max(axis=0)
    center = 0.5 * (lo + hi)
    radius = float(np.linalg.norm(vertices - center, axis=1).max())
    scale = max(radius, 1e-300)

    degenerate = cross_norm <= 1e-12 * scale * scale
    normals = np.zeros_like(cross)
    ok = ~degenerate
    normals[ok] = cross[ok] / cross_norm[ok, None]
    if degenerate.any():
        normals = _repair_degenerate_normals(vertices, faces, normals, areas, degenerate)

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


def _repair_degenerate_normals(vertices, faces, normals, areas, degenerate):
    """Give zero-area faces the area-weighted average of edge-neighbor normals.

    Slivers are kept (dropping faces would break component indexing); a face
    with no usable neighbor falls back to the upright axis.
    """
    edge_map = _edge_face_map(faces)
    neighbor_lists: list[list[int]] = [[] for _ in range(len(faces))]
    for face_list in edge_map.values():
        for a in face_list:
            for b in face_list:
                if a != b:
                    neighbor_lists[a].append(b)

    normals = normals.copy()
    for f in np.flatnonzero(degenerate):
        acc = np.zeros(3)
        for nb in neighbor_lists[f]:
            if not degenerate[nb]:
                acc += areas[nb] * normals[nb]
        norm = np.linalg.norm(acc)
        normals[f] = acc / norm if norm > 1e-300 else UPRIGHT_AXIS
    return normals


def _edge_face_map(faces: np.ndarray) -> dict[tuple[int, int], list[int]]:
    edge_map: dict[tuple[int, int], list[int]] = {}
    for f, (a, b, c) in enumerate(faces):
        for u, v in ((a, b), (b, c), (c, a)):
            key = (u, v) if u < v else (v, u)
            edge_map.setdefault(key, []).append(f)
    return edge_map


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
                    raise MalformedObjError("vertex needs 3 coordinates", lineno)
                try:
                    xyz = [float(parts[1]), float(parts[2]), float(parts[3])]
                except ValueError:
                    raise MalformedObjError("bad vertex coordinate", lineno) from None
                if not all(map(math.isfinite, xyz)):
                    raise MalformedObjError("non-finite vertex coordinate", lineno)
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
                        raise MalformedObjError(f"bad face index {head!r}", lineno) from None
                    if v == 0:
                        raise MalformedObjError("OBJ face indices are 1-based; got 0", lineno)
                    if v < 0:
                        v = len(vertices) + 1 + v  # relative indexing
                    if not 1 <= v <= len(vertices):
                        raise MalformedObjError(f"face index {v} out of range", lineno)
                    idx.append(v - 1)
                if len(idx) < 3:
                    raise MalformedObjError("face needs at least 3 vertices", lineno)
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
    return LabeledMesh(
        vertices=mesh.vertices,
        faces=mesh.faces,
        component_names=mesh.component_names,
        face_component=mesh.face_component,
        labels=tuple(labels),
        face_normals=mesh.face_normals,
        face_areas=mesh.face_areas,
        bounding_center=mesh.bounding_center,
        bounding_radius=mesh.bounding_radius,
    )


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
    doc = {
        "labels": {
            name: list(mesh.labels[c].names())
            for c, name in enumerate(mesh.component_names)
            if mesh.labels[c] is not None
        }
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_labels(path: str) -> dict[str, list[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return {str(k): [str(m) for m in v] for k, v in doc.get("labels", {}).items()}


@dataclass(frozen=True)
class FaceAdjacency:
    """Edge-sharing face pairs with their dihedral term.

    pairs : (E, 2) int array, each row (f, f') with f < f'
    omega : (E,) angle between face normals divided by pi, in [0, 1]
    connected_component : (F,) component id per face under edge-sharing
    """

    pairs: np.ndarray
    omega: np.ndarray
    connected_component: np.ndarray

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)


def compute_adjacency(mesh: LabeledMesh) -> FaceAdjacency:
    """Build the adjacency pair list and connectivity labels for a mesh.

    Non-manifold edges (more than two incident faces) connect every incident
    face pair, so smoothing still flows across repository-mesh defects.
    """
    edge_map = _edge_face_map(mesh.faces)
    pair_set: set[tuple[int, int]] = set()
    for face_list in edge_map.values():
        if len(face_list) < 2:
            continue
        for i in range(len(face_list)):
            for j in range(i + 1, len(face_list)):
                a, b = face_list[i], face_list[j]
                if a != b:
                    pair_set.add((a, b) if a < b else (b, a))

    if pair_set:
        pairs = np.array(sorted(pair_set), dtype=np.int64)
        dots = np.einsum("ij,ij->i", mesh.face_normals[pairs[:, 0]], mesh.face_normals[pairs[:, 1]])
        omega = np.arccos(np.clip(dots, -1.0, 1.0)) / np.pi
    else:
        pairs = np.zeros((0, 2), dtype=np.int64)
        omega = np.zeros(0)

    connected = _connected_components(mesh.n_faces, pairs)
    return FaceAdjacency(pairs=pairs, omega=omega, connected_component=connected)


def _connected_components(n: int, pairs: np.ndarray) -> np.ndarray:
    parent = np.arange(n)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[rb] = ra

    roots = np.array([find(i) for i in range(n)])
    _, labels = np.unique(roots, return_inverse=True)
    return labels
