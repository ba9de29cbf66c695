import json

import numpy as np
import pytest

from conftest import dense_shapes
from matseg.bvh import TriangleBvh
from matseg.config import SamplingConfig
from matseg.errors import EmptyMeshError, InvalidKError
from matseg.materials import multihot
from matseg.mesh import attach_labels, build_mesh
from matseg.sampling import (
    Samples,
    _fibonacci_directions,
    _sphere_exit,
    load_samples,
    positions_of,
    sample_surface_points,
    save_samples,
    subsample_even,
    visibility_filter,
)


def one_triangle():
    v = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    f = np.array([[0, 1, 2]])
    return build_mesh(v, f, ("t",), np.zeros(1, dtype=np.int64))


def two_triangles_9_to_1():
    v = np.array([
        [0.0, 0.0, 0.0], [6.0, 0.0, 0.0], [0.0, 3.0, 0.0],
        [10.0, 0.0, 0.0], [11.0, 0.0, 0.0], [10.0, 2.0, 0.0],
    ])
    f = np.array([[0, 1, 2], [3, 4, 5]])
    return build_mesh(v, f, ("big", "small"), np.array([0, 1]))


def box_mesh(lo, hi, closed=True):
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    corners = np.array([
        [lo[0], lo[1], lo[2]], [hi[0], lo[1], lo[2]],
        [hi[0], hi[1], lo[2]], [lo[0], hi[1], lo[2]],
        [lo[0], lo[1], hi[2]], [hi[0], lo[1], hi[2]],
        [hi[0], hi[1], hi[2]], [lo[0], hi[1], hi[2]],
    ])
    quads = [
        (0, 1, 5, 4),  # bottom
        (4, 5, 6, 7),  # front
        (1, 2, 6, 5),  # right
        (0, 4, 7, 3),  # left
        (0, 3, 2, 1),  # back
    ]
    if closed:
        quads.append((3, 7, 6, 2))  # top
    faces = []
    for a, b, c, d in quads:
        faces.append((a, b, c))
        faces.append((a, c, d))
    return corners, np.array(faces)


def one_sample(position, face):
    """A table holding one unlabeled sample at ``position`` on ``face``;
    visibility reads only the position and the face's normal."""
    return Samples(np.array([position], dtype=np.float64), np.array([face]),
                   np.full((1, 3), 1 / 3), np.zeros((1, 5)))


def test_single_triangle_sample_lands_on_it():
    mesh = one_triangle()
    samples = sample_surface_points(mesh, 1, seed=0)
    assert len(samples) == 1
    assert np.array_equal(samples.faces, [0])
    assert np.all(samples.barycentric >= 0)
    assert abs(samples.barycentric.sum() - 1.0) < 1e-9


def test_area_weighted_split():
    mesh = two_triangles_9_to_1()
    samples = sample_surface_points(mesh, 1000, seed=42, relax_iterations=0)
    big = int(np.sum(samples.faces == 0))
    # 3 sigma of Binomial(1000, 0.9)
    assert abs(big - 900) <= 3 * np.sqrt(1000 * 0.9 * 0.1)


def test_sampling_deterministic():
    mesh = two_triangles_9_to_1()
    a = sample_surface_points(mesh, 64, seed=7)
    b = sample_surface_points(mesh, 64, seed=7)
    assert np.array_equal(a.faces, b.faces)
    assert np.array_equal(positions_of(a), positions_of(b))


def test_barycentric_reconstructs_position():
    mesh = two_triangles_9_to_1()
    samples = sample_surface_points(mesh, 100, seed=3)
    rebuilt = np.einsum("ik,ikj->ij", samples.barycentric, mesh.vertices[mesh.faces[samples.faces]])
    assert np.all(np.linalg.norm(rebuilt - samples.positions, axis=1) < 1e-6 * mesh.bounding_radius)


def test_samples_inherit_component_labels():
    mesh = attach_labels(two_triangles_9_to_1(), {"big": ["wood"], "small": ["glass"]})
    samples = sample_surface_points(mesh, 200, seed=1)
    wood, glass = multihot([["wood"], ["glass"]])
    assert np.array_equal(samples.labels, np.where((samples.faces == 0)[:, None], wood, glass))


def test_zero_area_mesh_rejected():
    v = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    f = np.array([[0, 1, 2]])
    mesh = build_mesh(v, f, ("d",), np.zeros(1, dtype=np.int64))
    with pytest.raises(EmptyMeshError):
        sample_surface_points(mesh, 4, seed=0)


def test_outer_cube_samples_visible():
    verts, faces = box_mesh((0, 0, 0), (1, 1, 1))
    mesh = build_mesh(verts, faces, ("cube",), np.zeros(len(faces), dtype=np.int64))
    samples = sample_surface_points(mesh, 32, seed=0)
    kept = visibility_filter(mesh, samples)
    assert len(kept) == len(samples)
    assert np.array_equal(kept.positions, samples.positions)


def test_double_walled_box_inner_samples_invisible():
    outer_v, outer_f = box_mesh((0, 0, 0), (3, 3, 3))
    inner_v, inner_f = box_mesh((1, 1, 1), (2, 2, 2))
    verts = np.vstack([outer_v, inner_v])
    faces = np.vstack([outer_f, inner_f + len(outer_v)])
    comp = np.array([0] * len(outer_f) + [1] * len(inner_f))
    mesh = build_mesh(verts, faces, ("outer", "inner"), comp)
    inner_face = len(outer_f)  # a bottom face of the inner box
    assert np.array_equal(mesh.face_normals[inner_face], [0.0, -1.0, 0.0])
    assert len(visibility_filter(mesh, one_sample([1.4, 1.0, 1.4], inner_face))) == 0


def test_open_top_box_floor_visible():
    verts, faces = box_mesh((0, 0, 0), (1, 1, 1), closed=False)
    faces[0] = faces[0, ::-1]  # the floor triangle faces inward, up into the box
    mesh = build_mesh(verts, faces, ("box",), np.zeros(len(faces), dtype=np.int64))
    assert np.array_equal(mesh.face_normals[0], [0.0, 1.0, 0.0])
    assert len(visibility_filter(mesh, one_sample([0.4, 0.0, 0.4], 0))) == 1


def test_visibility_monotone_under_face_removal():
    outer_v, outer_f = box_mesh((0, 0, 0), (3, 3, 3))
    inner_v, inner_f = box_mesh((1, 1, 1), (2, 2, 2))
    verts = np.vstack([outer_v, inner_v])
    all_faces = np.vstack([outer_f, inner_f + len(outer_v)])
    full = build_mesh(verts, all_faces, ("m",), np.zeros(len(all_faces), dtype=np.int64))
    # dropping the outer shell exposes the formerly hidden inner box
    part = build_mesh(verts, all_faces[len(outer_f):], ("m",),
                      np.zeros(len(inner_f), dtype=np.int64))

    # face 0 is a bottom face of each mesh's outermost box, facing down
    assert np.array_equal(full.face_normals[0], [0.0, -1.0, 0.0])
    assert np.array_equal(part.face_normals[0], [0.0, -1.0, 0.0])
    probe = one_sample([1.4, 1.0, 1.4], 0)
    assert len(visibility_filter(full, probe)) == 0
    assert len(visibility_filter(part, probe)) == 1


def all_rays_visible(mesh, samples, n_rays, offset=SamplingConfig.visibility_offset):
    """Reference visibility: every sample traces all ``n_rays`` directions in
    one query, and is visible iff one of them escapes."""
    dirs = _fibonacci_directions(n_rays)
    radius = mesh.bounding_radius
    origins = positions_of(samples) + offset * radius * mesh.face_normals[samples.faces]
    ray_origins = np.repeat(origins, n_rays, axis=0)
    ray_dirs = np.tile(dirs, (len(samples), 1))
    t_exit = _sphere_exit(ray_origins, ray_dirs, mesh.bounding_center,
                          radius * 1.001 + offset * radius)
    blocked = TriangleBvh(mesh.vertices, mesh.faces).any_hit(
        ray_origins, ray_dirs, t_max=t_exit, t_min=1e-12 * radius)
    return ~blocked.reshape(len(samples), n_rays).all(axis=1)


@pytest.mark.parametrize("n_rays", [SamplingConfig.visibility_rays, 20, 5])
def test_visibility_rounds_match_all_rays(n_rays):
    for mesh in dense_shapes(levels=2):
        samples = sample_surface_points(mesh, 300, seed=3)
        want = all_rays_visible(mesh, samples, n_rays)
        kept = visibility_filter(mesh, samples, n_rays=n_rays)
        for column in ("positions", "faces", "barycentric", "labels"):
            assert np.array_equal(getattr(kept, column), getattr(samples, column)[want])
        assert 0 < len(kept) < len(samples)


def test_subsample_exact_size_and_subset():
    mesh = two_triangles_9_to_1()
    samples = sample_surface_points(mesh, 150, seed=5)
    out = subsample_even(samples, 75, seed=5)
    assert len(out) == 75
    # every kept row is one of the input rows, none twice
    rows = [np.flatnonzero(np.all(samples.positions == p, axis=1)) for p in out.positions]
    assert all(len(r) == 1 for r in rows)
    rows = np.concatenate(rows)
    assert len(set(rows.tolist())) == 75
    assert np.array_equal(out.faces, samples.faces[rows])
    assert np.array_equal(out.barycentric, samples.barycentric[rows])


def test_subsample_spreads_better_than_random():
    mesh = two_triangles_9_to_1()
    samples = sample_surface_points(mesh, 150, seed=9)
    pos = positions_of(samples)

    def min_gap(idx):
        p = pos[idx]
        d = np.linalg.norm(p[:, None, :] - p[None, :, :], axis=2)
        np.fill_diagonal(d, np.inf)
        return d.min()

    fps = subsample_even(samples, 75, seed=9)
    fps_idx = [int(np.flatnonzero(np.all(pos == p, axis=1))[0]) for p in fps.positions]
    rng = np.random.default_rng(9)
    random_gaps = [min_gap(rng.choice(150, size=75, replace=False)) for _ in range(100)]
    assert min_gap(np.array(fps_idx)) >= max(random_gaps)


def test_subsample_identity_and_single():
    mesh = one_triangle()
    samples = sample_surface_points(mesh, 20, seed=2)
    whole = subsample_even(samples, 20, seed=0)
    order = np.lexsort(whole.positions.T)
    assert np.array_equal(whole.positions[order], samples.positions[np.lexsort(samples.positions.T)])
    single = subsample_even(samples, 1, seed=11)
    start = int(np.random.default_rng(11).integers(20))
    assert np.array_equal(single.positions, samples.positions[[start]])
    assert np.array_equal(single.faces, samples.faces[[start]])
    for k in (0, -1):
        with pytest.raises(InvalidKError):
            subsample_even(samples, k, seed=0)


def test_subsample_overflow_warns_and_returns_all():
    mesh = one_triangle()
    samples = sample_surface_points(mesh, 5, seed=0)
    with pytest.warns(UserWarning):
        out = subsample_even(samples, 10, seed=0)
    for column in ("positions", "faces", "barycentric", "labels"):
        assert np.array_equal(getattr(out, column), getattr(samples, column))


def test_samples_round_trip(tmp_path):
    mesh = attach_labels(two_triangles_9_to_1(), {"big": ["wood"], "small": ["glass"]})
    samples = visibility_filter(mesh, sample_surface_points(mesh, 40, seed=13))
    path = tmp_path / "samples.jsonl"
    save_samples(str(path), samples)
    back = load_samples(str(path), mesh)
    assert len(back) == len(samples)
    assert np.array_equal(back.faces, samples.faces)
    assert np.array_equal(back.labels, samples.labels)
    assert np.allclose(back.positions, samples.positions)
    assert np.allclose(back.barycentric, samples.barycentric)
    lines = path.read_text().splitlines()
    assert all(json.loads(line).keys() == {"position", "face", "barycentric"} for line in lines)


def test_samples_with_stored_labels_still_load(tmp_path):
    """Lines that also carry labels and a visible flag, as older files do,
    load as before; the labels come from the mesh, not from the line."""
    mesh = attach_labels(two_triangles_9_to_1(), {"big": ["wood"], "small": ["glass"]})
    samples = sample_surface_points(mesh, 10, seed=2)
    path = tmp_path / "samples.jsonl"
    save_samples(str(path), samples)
    lines = [{**json.loads(line), "labels": ["sand"] if i == 0 else ["metal"], "visible": True}
             for i, line in enumerate(path.read_text().splitlines())]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    back = load_samples(str(path), mesh)
    assert np.array_equal(back.faces, samples.faces)
    assert np.array_equal(back.labels, samples.labels)
