"""Approximate geodesic distances over the face dual graph.

Distances run between face centroids along shared-edge adjacency. The CRF
only needs short-range pairs, so per-face Dijkstra is cut off at a fraction
of the estimated geodesic diameter and each face keeps at most a capped
number of nearest partners.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .config import GeodesicConfig
from .jsonl import read_jsonl, unit, write_jsonl
from .mesh import FaceAdjacency, LabeledMesh
from .sampling import farthest_points

_DIAMETER_SEEDS = 8
_SOURCE_CHUNK = 256


@dataclass(frozen=True)
class DistancePair:
    """Unordered face pair with normalized geodesic distance in [0, 1]."""

    face_a: int
    face_b: int
    distance: float


def dual_graph(mesh: LabeledMesh, adjacency: FaceAdjacency) -> csr_matrix:
    """Symmetric CSR graph over faces weighted by centroid distance.

    Coincident centroids get a tiny positive floor so Dijkstra still treats
    the edge as traversable with near-zero cost.
    """
    n = mesh.n_faces
    if len(adjacency.pairs) == 0:
        return csr_matrix((n, n))
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
    adjacency: FaceAdjacency,
    radius_fraction: float = GeodesicConfig.radius_fraction,
    cap: int = GeodesicConfig.cap,
    seed: int = 0,
) -> list[DistancePair]:
    """Short-range geodesic face pairs, normalized by the geodesic diameter.

    Each face keeps its ``cap`` nearest reachable partners within
    ``radius_fraction`` of the diameter; ties at the cap boundary break by a
    seeded shuffle so the choice is deterministic but unbiased. Pairs are
    deduplicated with face_a < face_b.
    """
    graph = dual_graph(mesh, adjacency)
    diameter = estimate_diameter(mesh, graph)
    if diameter <= 0.0:
        return []
    limit = radius_fraction * diameter
    rng = np.random.default_rng(seed)
    n = mesh.n_faces

    kept: dict[tuple[int, int], float] = {}
    for start in range(0, n, _SOURCE_CHUNK):
        sources = np.arange(start, min(start + _SOURCE_CHUNK, n))
        dist = dijkstra(graph, directed=False, indices=sources, limit=limit)
        for row, src in enumerate(sources):
            d = dist[row]
            reach = np.flatnonzero(np.isfinite(d))
            reach = reach[reach != src]
            if reach.size == 0:
                continue
            if reach.size > cap:
                # shuffle before the stable sort so equal distances don't
                # always favor low face ids at the cap boundary
                perm = rng.permutation(reach.size)
                reach = reach[perm]
                order = np.argsort(d[reach], kind="stable")[:cap]
                reach = reach[order]
            for other in reach:
                key = (int(src), int(other)) if src < other else (int(other), int(src))
                if key not in kept:
                    kept[key] = float(min(1.0, max(0.0, d[other] / diameter)))
    return [DistancePair(a, b, v) for (a, b), v in sorted(kept.items())]

def save_distance_pairs(path: str, pairs: list[DistancePair]) -> None:
    write_jsonl(path, ({"face_a": p.face_a, "face_b": p.face_b, "d": p.distance} for p in pairs))


def load_distance_pairs(path: str) -> list[DistancePair]:
    return [
        DistancePair(rec["face_a"], rec["face_b"], rec["d"])
        for rec in read_jsonl(path, {"face_a": int, "face_b": int, "d": unit})
    ]
