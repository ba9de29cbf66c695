import math

import numpy as np
import pytest

from matseg.errors import (
    EmptyMeshError,
    MalformedObjError,
    NonFiniteGeometryError,
    UnknownComponentError,
)
from matseg.materials import MaterialLabelSet, multihot
from matseg.mesh import (
    attach_labels,
    build_mesh,
    compute_adjacency,
    load_labels,
    load_obj,
    save_labels,
    save_obj,
)

from conftest import labeled


def test_cube_two_groups(cube):
    assert cube.n_faces == 12
    assert cube.component_names == ("top", "rest")
    assert len(cube.component_faces("top")) == 2
    assert len(cube.component_faces("rest")) == 10


def test_component_counts_partition_faces(cube):
    total = sum(len(cube.component_faces(c)) for c in range(cube.n_components))
    assert total == cube.n_faces


def test_normals_unit_and_sphere_bounds(cube):
    norms = np.linalg.norm(cube.face_normals, axis=1)
    assert np.all(np.abs(norms - 1.0) < 1e-9)
    dist = np.linalg.norm(cube.vertices - cube.bounding_center, axis=1)
    assert dist.max() <= cube.bounding_radius * (1 + 1e-6)


def test_quad_fan_triangulation(tmp_path):
    p = tmp_path / "quad.obj"
    p.write_text("v 0 0 0\nv 2 0 0\nv 2 1 0\nv 0 1 0\nf 1 2 3 4\n")
    mesh = load_obj(str(p))
    assert mesh.n_faces == 2
    assert mesh.n_components == 1
    # fan triangulation preserves the quad's area
    assert abs(mesh.total_area() - 2.0) < 1e-9 * 2.0


def test_one_based_indexing_enforced(tmp_path):
    p = tmp_path / "bad.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n")
    with pytest.raises(MalformedObjError) as exc:
        load_obj(str(p))
    assert exc.value.line == 4
    assert str(exc.value) == f"{p}, line 4: OBJ face indices are 1-based; got 0"


def test_no_faces_rejected(tmp_path):
    p = tmp_path / "empty.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\n")
    with pytest.raises(EmptyMeshError):
        load_obj(str(p))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_vertex_rejected(tmp_path, value):
    p = tmp_path / "nan.obj"
    p.write_text(f"v 0 0 0\nv 1 0 0\nv {value} 1 0\nf 1 2 3\n")
    with pytest.raises(MalformedObjError) as exc:
        load_obj(str(p))
    assert exc.value.line == 3
    v = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, float(value)]])
    with pytest.raises(NonFiniteGeometryError, match="vertex 2"):
        build_mesh(v, np.array([[0, 1, 2]]), ("a",), np.array([0]))


def test_cube_adjacency_pair_count(cube):
    adj = compute_adjacency(cube)
    # closed 12-triangle cube: 12*3 edge slots, every edge shared by two
    # faces, so 18 distinct shared edges
    assert len(adj) == 18


def test_adjacency_canonical_and_irreflexive(cube):
    adj = compute_adjacency(cube)
    assert np.all(adj.pairs[:, 0] < adj.pairs[:, 1])
    as_set = {(int(a), int(b)) for a, b in adj.pairs}
    assert len(as_set) == len(adj)


def test_omega_recomputes_from_normals(cube):
    adj = compute_adjacency(cube)
    n = cube.face_normals
    for (a, b), w in zip(adj.pairs, adj.value):
        dot = float(np.clip(np.dot(n[a], n[b]), -1.0, 1.0))
        assert math.acos(dot) / math.pi == w


def test_omega_coplanar_and_right_angle():
    vertices = np.array([
        [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0],
    ])
    faces = np.array([[0, 1, 2], [1, 3, 2]])
    flat = build_mesh(vertices, faces, ("s",), np.zeros(2, dtype=np.int64))
    adj = compute_adjacency(flat)
    assert len(adj) == 1
    assert adj.value[0] == 0.0

    vertices = np.array([
        [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0],
    ])
    faces = np.array([[0, 1, 2], [0, 3, 1]])
    bent = build_mesh(vertices, faces, ("s",), np.zeros(2, dtype=np.int64))
    adj = compute_adjacency(bent)
    assert len(adj) == 1
    assert abs(adj.value[0] - 0.5) < 1e-12


def test_nonmanifold_edge_connects_all_pairs():
    # three triangles around one shared edge: all three pairs adjacent
    vertices = np.array([
        [0.0, 0.0, 0.0], [0.0, 0.0, 1.0],
        [1.0, 0.0, 0.5], [-1.0, 0.5, 0.5], [-1.0, -0.5, 0.5],
    ])
    faces = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
    mesh = build_mesh(vertices, faces, ("s",), np.zeros(3, dtype=np.int64))
    adj = compute_adjacency(mesh)
    assert {(int(a), int(b)) for a, b in adj.pairs} == {(0, 1), (0, 2), (1, 2)}


def test_zero_area_face_borrows_neighbor_normal():
    vertices = np.array([
        [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.0, 0.0],
    ])
    # second face is a degenerate sliver along the first's edge
    faces = np.array([[0, 1, 2], [0, 3, 1]])
    mesh = build_mesh(vertices, faces, ("s",), np.zeros(2, dtype=np.int64))
    assert mesh.face_areas[1] == 0.0
    assert abs(np.linalg.norm(mesh.face_normals[1]) - 1.0) < 1e-9
    assert abs(abs(np.dot(mesh.face_normals[1], mesh.face_normals[0])) - 1.0) < 1e-9


def test_face_with_a_repeated_vertex_is_adjacent_once():
    # face 0 repeats vertex 0, so it owns two slots of the edge (0, 1) it
    # shares with face 1
    vertices = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.5]])
    mesh = build_mesh(vertices, np.array([[0, 0, 1], [0, 1, 2]]), ("s",), np.zeros(2, dtype=np.int64))
    adj = compute_adjacency(mesh)
    assert adj.pairs.tolist() == [[0, 1]]
    assert adj.value[0] < 1e-8
    assert np.allclose(mesh.face_normals[0], mesh.face_normals[1], rtol=0.0, atol=1e-12)


def test_attach_labels(cube):
    out = attach_labels(cube, {"top": ["glass"], "rest": ["wood"]})
    assert out.labels[0] == labeled("glass")
    assert out.labels[1] == labeled("wood")


def test_attach_multi_material_label(cube):
    out = attach_labels(cube, {"top": ["metal", "plastic"]})
    assert out.labels[0] == MaterialLabelSet(("metal", "plastic"))
    assert out.labels[1] is None


def test_multihot():
    # a None set marks nothing
    assert np.array_equal(multihot([None, MaterialLabelSet(["glass"])]), [[0] * 5, [0, 0, 0, 1, 0]])
    # names outside the given materials are left out
    assert np.array_equal(multihot([["wood", "metal"], ["glass"]], ("metal", "wood")), [[1, 1], [0, 0]])


def test_attach_unknown_component(cube):
    with pytest.raises(UnknownComponentError):
        attach_labels(cube, {"ghost": ["wood"]})


def test_obj_round_trip(tmp_path, cube):
    out = tmp_path / "echo.obj"
    save_obj(str(out), cube)
    back = load_obj(str(out))
    assert back.component_names == cube.component_names
    assert np.array_equal(back.faces, cube.faces)
    assert np.allclose(back.vertices, cube.vertices, atol=0.0)
    assert np.array_equal(back.face_component, cube.face_component)


def test_labels_round_trip(tmp_path, cube):
    mesh = attach_labels(cube, {"top": ["glass"], "rest": ["metal", "plastic"]})
    path = tmp_path / "labels.json"
    save_labels(str(path), mesh)
    doc = load_labels(str(path))
    again = attach_labels(cube, doc)
    assert again.labels == mesh.labels
