import heapq
import math

import numpy as np

from matseg.geodesics import (
    dual_graph,
    estimate_diameter,
    geodesic_pairs,
    load_distance_pairs,
    save_distance_pairs,
)
from matseg.mesh import build_mesh, compute_adjacency

from conftest import strip_mesh


def naive_all_pairs(mesh, adjacency):
    """Reference shortest paths over centroid-weighted face adjacency."""
    cent = mesh.face_centroids()
    n = mesh.n_faces
    nbrs = [[] for _ in range(n)]
    for a, b in adjacency.pairs:
        w = float(np.linalg.norm(cent[a] - cent[b]))
        nbrs[int(a)].append((int(b), w))
        nbrs[int(b)].append((int(a), w))
    dist = np.full((n, n), math.inf)
    for src in range(n):
        dist[src, src] = 0.0
        heap = [(0.0, src)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[src, u]:
                continue
            for v, w in nbrs[u]:
                nd = d + w
                if nd < dist[src, v]:
                    dist[src, v] = nd
                    heapq.heappush(heap, (nd, v))
    return dist


def test_dual_graph_edge_weight_is_centroid_distance():
    v = np.array([
        [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0],
    ])
    f = np.array([[0, 1, 2], [1, 3, 2]])
    mesh = build_mesh(v, f, ("s",), np.zeros(2, dtype=np.int64))
    graph = dual_graph(mesh, compute_adjacency(mesh))
    c0 = v[[0, 1, 2]].mean(axis=0)
    c1 = v[[1, 3, 2]].mean(axis=0)
    want = float(np.linalg.norm(c0 - c1))
    assert graph.nnz == 2  # symmetric storage of one edge
    assert abs(graph[0, 1] - want) < 1e-12
    assert abs(graph[1, 0] - want) < 1e-12


def test_single_face_graph_has_no_edges():
    v = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    mesh = build_mesh(v, np.array([[0, 1, 2]]), ("s",), np.zeros(1, dtype=np.int64))
    graph = dual_graph(mesh, compute_adjacency(mesh))
    assert graph.nnz == 0
    assert geodesic_pairs(mesh, compute_adjacency(mesh)) == []


def test_strip_all_pairs_match_oracle():
    mesh = strip_mesh(5)  # 10 faces in a path
    adjacency = compute_adjacency(mesh)
    pairs = geodesic_pairs(mesh, adjacency, radius_fraction=1.0, cap=10 ** 6)
    assert len(pairs) == 45

    ref = naive_all_pairs(mesh, adjacency)
    diameter = float(ref[np.isfinite(ref)].max())
    assert abs(estimate_diameter(mesh, dual_graph(mesh, adjacency)) - diameter) < 1e-12
    for p in pairs:
        assert p.face_a < p.face_b
        assert abs(p.distance - ref[p.face_a, p.face_b] / diameter) < 1e-12
        assert 0.0 < p.distance <= 1.0

    # along the dual path, distance from any source grows with index gap
    lookup = {(p.face_a, p.face_b): p.distance for p in pairs}

    def d(a, b):
        return lookup[(min(a, b), max(a, b))]

    for src in range(10):
        right = [d(src, f) for f in range(src + 1, 10)]
        left = [d(src, f) for f in range(src - 1, -1, -1)]
        for run in (right, left):
            assert all(x < y for x, y in zip(run, run[1:]))
        assert len(right) + len(left) == 9


def test_triangle_inequality_on_strip():
    mesh = strip_mesh(4)
    adjacency = compute_adjacency(mesh)
    pairs = geodesic_pairs(mesh, adjacency, radius_fraction=1.0, cap=10 ** 6)
    n = mesh.n_faces
    d = np.zeros((n, n))
    for p in pairs:
        d[p.face_a, p.face_b] = d[p.face_b, p.face_a] = p.distance
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if a != b and b != c and a != c:
                    assert d[a, c] <= d[a, b] + d[b, c] + 1e-12


def test_components_never_paired():
    # two disjoint strips in one mesh
    m1 = strip_mesh(3)
    shift = m1.vertices + np.array([0.0, 10.0, 0.0])
    verts = np.vstack([m1.vertices, shift])
    faces = np.vstack([m1.faces, m1.faces + len(m1.vertices)])
    comp = np.array([0] * m1.n_faces + [1] * m1.n_faces)
    mesh = build_mesh(verts, faces, ("a", "b"), comp)
    pairs = geodesic_pairs(mesh, compute_adjacency(mesh), radius_fraction=1.0, cap=10 ** 6)
    assert pairs
    for p in pairs:
        assert comp[p.face_a] == comp[p.face_b]


def test_cap_limits_pair_count():
    mesh = strip_mesh(5)
    adjacency = compute_adjacency(mesh)
    cap = 3
    pairs = geodesic_pairs(mesh, adjacency, radius_fraction=1.0, cap=cap)
    assert len(pairs) <= mesh.n_faces * cap
    per_face = {}
    for p in pairs:
        per_face[p.face_a] = per_face.get(p.face_a, 0) + 1
        per_face[p.face_b] = per_face.get(p.face_b, 0) + 1
    # dedup can push a face above cap only via partners that chose it
    assert all(v <= 2 * cap for v in per_face.values())


def test_geodesic_pairs_deterministic():
    mesh = strip_mesh(5)
    adjacency = compute_adjacency(mesh)
    a = geodesic_pairs(mesh, adjacency, cap=4, seed=3)
    b = geodesic_pairs(mesh, adjacency, cap=4, seed=3)
    assert [(p.face_a, p.face_b, p.distance) for p in a] == [(p.face_a, p.face_b, p.distance) for p in b]


def test_distance_pairs_round_trip(tmp_path):
    mesh = strip_mesh(4)
    pairs = geodesic_pairs(mesh, compute_adjacency(mesh), radius_fraction=0.5, cap=4)
    path = tmp_path / "pairs.jsonl"
    save_distance_pairs(str(path), pairs)
    back = load_distance_pairs(str(path))
    assert [(p.face_a, p.face_b, p.distance) for p in back] == [
        (p.face_a, p.face_b, p.distance) for p in pairs
    ]
