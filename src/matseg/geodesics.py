"""Approximate geodesic distances over the face dual graph.

Distances run between face centroids along shared-edge adjacency. The CRF
only needs short-range pairs, so per-face Dijkstra is cut off at a fraction
of the estimated geodesic diameter and each face keeps at most a capped
number of nearest partners. The pairs come as one FacePairs table whose
value is the distance over that diameter.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .config import GeodesicConfig
from .jsonl import read_jsonl, unit, write_jsonl
from .mesh import FacePairs, LabeledMesh, first_per_pair
from .sampling import farthest_points

_DIAMETER_SEEDS = 8
_SOURCE_CHUNK = 256


def dual_graph(mesh: LabeledMesh, adjacency: FacePairs) -> csr_matrix:
    """Symmetric CSR graph over faces weighted by centroid distance.

    Coincident centroids get a tiny positive floor so Dijkstra still treats
    the edge as traversable with near-zero cost.
    """
    n = mesh.n_faces
    centroids = mesh.face_centroids()
    a = adjacency.pairs[:, 0]
    b = adjacency.pairs[:, 1]
    w = np.linalg.norm(centroids[a] - centroids[b], axis=1)
    floor = 1e-12 * mesh.bounding_radius
    w = np.maximum(w, floor)
    rows = np.concatenate([a, b])
    cols = np.concatenate([b, a])
    data = np.concatenate([w, w])
    return csr_matrix((data, (rows, cols)), shape=(n, n))


def estimate_diameter(mesh: LabeledMesh, graph: csr_matrix) -> float:
    """Largest finite Dijkstra distance from a small farthest-point seed set."""
    seeds = farthest_points(mesh.face_centroids(), min(_DIAMETER_SEEDS, graph.shape[0]), 0)
    dist = dijkstra(graph, directed=False, indices=seeds)
    finite = dist[np.isfinite(dist)]
    if finite.size == 0:
        return 0.0
    return float(finite.max())


def geodesic_pairs(
    mesh: LabeledMesh,
    adjacency: FacePairs,
    radius_fraction: float = GeodesicConfig.radius_fraction,
    cap: int = GeodesicConfig.cap,
    seed: int = 0,
) -> FacePairs:
    """Short-range geodesic face pairs, normalized by the geodesic diameter.

    Each face keeps its ``cap`` nearest reachable partners within
    ``radius_fraction`` of the diameter; ties at the cap boundary break by a
    seeded shuffle so the choice is deterministic but unbiased. A pair both
    faces keep takes its distance from the lower face's row.
    """
    graph = dual_graph(mesh, adjacency)
    diameter = estimate_diameter(mesh, graph)
    if diameter <= 0.0:
        return FacePairs(np.zeros((0, 2), dtype=np.int64), np.zeros(0))
    limit = radius_fraction * diameter
    rng = np.random.default_rng(seed)
    n = mesh.n_faces

    src, other, d = [], [], []
    for start in range(0, n, _SOURCE_CHUNK):
        sources = np.arange(start, min(start + _SOURCE_CHUNK, n))
        dist = dijkstra(graph, directed=False, indices=sources, limit=limit)
        reach = np.isfinite(dist)
        reach[np.arange(len(sources)), sources] = False
        for row in np.flatnonzero(reach.sum(axis=1) > cap):
            # shuffle before the stable sort so equal distances don't
            # always favor low face ids at the cap boundary
            partners = np.flatnonzero(reach[row])
            partners = partners[rng.permutation(partners.size)]
            reach[row] = False
            reach[row, partners[np.argsort(dist[row, partners], kind="stable")[:cap]]] = True
        rows, cols = np.nonzero(reach)
        src.append(sources[rows])
        other.append(cols)
        d.append(dist[rows, cols])
    src, other, d = np.concatenate(src), np.concatenate(other), np.concatenate(d)
    pick = first_per_pair(src, other, src)
    pairs = np.sort(np.stack([src[pick], other[pick]], axis=1), axis=1)
    return FacePairs(pairs, np.minimum(d[pick] / diameter, 1.0))


def save_distance_pairs(path: str, pairs: FacePairs) -> None:
    write_jsonl(path, ({"face_a": a, "face_b": b, "d": d}
                       for (a, b), d in zip(pairs.pairs.tolist(), pairs.value.tolist())))


def load_distance_pairs(path: str) -> FacePairs:
    records = list(read_jsonl(path, {"face_a": int, "face_b": int, "d": unit}))
    return FacePairs(
        np.array([[rec["face_a"], rec["face_b"]] for rec in records], dtype=np.int64).reshape(-1, 2),
        np.array([rec["d"] for rec in records], dtype=np.float64),
    )
