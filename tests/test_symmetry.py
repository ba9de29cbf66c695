import math

import numpy as np
import pytest

from scipy.spatial import cKDTree
from scipy.spatial.transform import Rotation

from matseg.errors import DegenerateGeometryError
from matseg.mesh import build_mesh
from matseg.symmetry import (
    DetectedSymmetry,
    RigidTransform,
    _component_cloud,
    _maps_arrangement,
    _refit,
    detect_symmetries,
    icp_align,
    load_symmetries,
    load_symmetry_pairs,
    save_symmetries,
    save_symmetry_pairs,
    symmetry_pairs,
    unique_transforms,
)
from matseg.synth import benchmark_suite, generate


def y_rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def four_box_mesh():
    """Four identical boxes at the corners of a square: D4 arrangement."""
    base = np.array([
        [0.0, 0.0, 0.0], [0.2, 0.0, 0.0], [0.2, 0.5, 0.0], [0.0, 0.5, 0.0],
        [0.0, 0.0, 0.2], [0.2, 0.0, 0.2], [0.2, 0.5, 0.2], [0.0, 0.5, 0.2],
    ]) - np.array([0.1, 0.0, 0.1])
    quads = [
        (0, 1, 5, 4), (4, 5, 6, 7), (1, 2, 6, 5),
        (0, 4, 7, 3), (0, 3, 2, 1), (3, 7, 6, 2),
    ]
    box_faces = []
    for a, b, c, d in quads:
        box_faces.append((a, b, c))
        box_faces.append((a, c, d))
    box_faces = np.array(box_faces)

    verts, faces, comp = [], [], []
    names = []
    for i, angle in enumerate([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi]):
        r = y_rotation(angle)
        at = r @ np.array([1.0, 0.0, 0.0])
        verts.append(base @ r.T + at)
        faces.append(box_faces + 8 * i)
        comp.extend([i] * len(box_faces))
        names.append(f"box_{i}")
    return build_mesh(np.vstack(verts), np.vstack(faces), tuple(names), np.array(comp))


def test_rigid_transform_validation():
    with pytest.raises(ValueError):
        RigidTransform(np.eye(3) * 2.0, np.zeros(3))
    with pytest.raises(ValueError):
        RigidTransform(np.ones((3, 3)), np.zeros(3))


def test_compose_and_inverse():
    a = RigidTransform(y_rotation(0.7), np.array([1.0, 2.0, 3.0]))
    b = RigidTransform(y_rotation(-0.2), np.array([0.5, 0.0, -1.0]))
    pts = np.random.default_rng(0).normal(size=(20, 3))
    assert np.allclose(a.compose(b).apply(pts), a.apply(b.apply(pts)))
    round_trip = a.compose(a.inverse())
    assert np.allclose(round_trip.rotation, np.eye(3), atol=1e-12)
    assert np.allclose(round_trip.translation, 0.0, atol=1e-12)


def test_angle_axis_known_rotation():
    t = RigidTransform(y_rotation(0.7), np.zeros(3))
    angle, axis = t.angle_axis()
    assert abs(angle - 0.7) < 1e-12
    assert abs(abs(axis[1]) - 1.0) < 1e-12
    assert t.det == 1.0
    assert t.kind == "rotational"


def test_angle_axis_mirror():
    mirror = np.diag([-1.0, 1.0, 1.0])
    t = RigidTransform(mirror, np.zeros(3))
    assert t.det == -1.0
    assert t.kind == "reflective"
    angle, axis = t.angle_axis()
    # a mirror is angle pi about its plane normal, read through -R
    assert abs(angle - math.pi) < 1e-9
    assert abs(abs(axis[0]) - 1.0) < 1e-9


def test_icp_recovers_known_rotation():
    rng = np.random.default_rng(5)
    src = rng.normal(size=(120, 3))
    true = RigidTransform(y_rotation(math.radians(30.0)), np.array([0.3, -0.1, 0.2]))
    dst = true.apply(src)
    init = RigidTransform(y_rotation(math.radians(22.0)),
                          dst.mean(axis=0) - y_rotation(math.radians(22.0)) @ src.mean(axis=0))
    fit, rmsd = icp_align(src, dst, init=init)
    assert rmsd < 1e-9
    angle, axis = fit.compose(true.inverse()).angle_axis()
    assert angle < 1e-3


def test_icp_keeps_reflection_sign():
    rng = np.random.default_rng(6)
    src = rng.normal(size=(100, 3))
    mirror = RigidTransform(np.diag([-1.0, 1.0, 1.0]), np.array([0.2, 0.0, 0.0]))
    dst = mirror.apply(src)
    fit, rmsd = icp_align(src, dst, init=RigidTransform(np.diag([-1.0, 1.0, 1.0]), np.zeros(3)))
    assert rmsd < 1e-9
    assert fit.det == -1.0


def test_icp_rejects_collinear_points():
    line = np.array([[float(i), 0.0, 0.0] for i in range(30)])
    with pytest.raises(DegenerateGeometryError):
        icp_align(line, line + np.array([0.0, 1.0, 0.0]))


def test_four_boxes_have_quarter_turn():
    mesh = four_box_mesh()
    syms = detect_symmetries(mesh, seed=0)
    assert syms, "no symmetries detected"
    reps = unique_transforms(syms)
    angles = []
    for rep in reps.values():
        angle, axis = rep.angle_axis()
        if rep.det > 0:
            angles.append((angle, abs(axis[1])))
    quarter = [a for a, ay in angles if abs(a - math.pi / 2) < 1e-3 and ay > 0.999]
    assert quarter, f"quarter turn missing; proper angles: {angles}"


def test_detect_symmetries_deterministic():
    mesh = four_box_mesh()
    a = detect_symmetries(mesh, seed=3)
    b = detect_symmetries(mesh, seed=3)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.transform_id == y.transform_id
        assert x.source_component == y.source_component
        assert x.target_component == y.target_component
        assert x.rmsd == y.rmsd
        assert np.array_equal(x.transform.rotation, y.transform.rotation)
        assert np.array_equal(x.transform.translation, y.transform.translation)


def test_exact_transform_gives_tiny_residuals():
    mesh = four_box_mesh()
    quarter = RigidTransform(y_rotation(math.pi / 2), np.zeros(3))
    syms = [
        DetectedSymmetry(quarter, src, (src + 1) % 4, 0.0, 0)
        for src in range(4)
    ]
    pairs = symmetry_pairs(mesh, syms)
    assert pairs
    assert max(p.s for p in pairs) < 1e-6
    # every face of every source component finds a partner
    assert len(pairs) >= mesh.n_faces


def test_quarter_turn_four_times_is_identity():
    quarter = RigidTransform(y_rotation(math.pi / 2), np.zeros(3))
    four = quarter.compose(quarter).compose(quarter).compose(quarter)
    assert np.allclose(four.rotation, np.eye(3), atol=1e-6)
    assert np.allclose(four.translation, 0.0, atol=1e-6)


def test_pair_residual_recomputes():
    mesh = four_box_mesh()
    quarter = RigidTransform(y_rotation(math.pi / 2), np.zeros(3))
    syms = [DetectedSymmetry(quarter, 0, 1, 0.0, 0)]
    pairs = symmetry_pairs(mesh, syms)
    centroids = mesh.face_centroids()
    faces_b = set(int(f) for f in mesh.component_faces(1))
    for p in pairs:
        fa, fb = (p.face_a, p.face_b) if p.face_b in faces_b else (p.face_b, p.face_a)
        moved = quarter.apply(centroids[fa])
        s = min(float(np.linalg.norm(moved - centroids[fb])) / mesh.bounding_radius, 1.0)
        assert s == p.s


def test_symmetry_round_trips(tmp_path):
    mesh = four_box_mesh()
    syms = detect_symmetries(mesh, seed=1)
    path = tmp_path / "syms.json"
    save_symmetries(str(path), syms)
    back = load_symmetries(str(path))
    assert len(back) == len(syms)
    for x, y in zip(syms, back):
        assert x.transform_id == y.transform_id
        assert x.source_component == y.source_component
        assert x.target_component == y.target_component
        assert np.allclose(x.transform.rotation, y.transform.rotation)
        assert np.allclose(x.transform.translation, y.transform.translation)

    pairs = symmetry_pairs(mesh, syms)
    ppath = tmp_path / "pairs.jsonl"
    save_symmetry_pairs(str(ppath), pairs)
    pback = load_symmetry_pairs(str(ppath))
    assert [(p.face_a, p.face_b, p.s, p.transform_id) for p in pairs] == [
        (p.face_a, p.face_b, p.s, p.transform_id) for p in pback
    ]


# the symmetries the generator builds in: quarter turns about the upright
# axis for tables, the x-mirror for chairs
QUARTER = y_rotation(math.pi / 2)
BUILT_IN = {
    "table": [np.linalg.matrix_power(QUARTER, k) for k in (1, 2, 3)],
    "chair": [np.diag([-1.0, 1.0, 1.0])],
}


@pytest.fixture(scope="module")
def suite_detections():
    """Jitter-free suite shapes 2 (prism table) and 15 (box chair), seed 5."""
    out = {}
    for idx in (2, 15):
        spec = benchmark_suite()[idx]
        assert spec.jitter == 0.0
        mesh = generate(spec)
        out[idx] = (spec, mesh, detect_symmetries(mesh, seed=5))
    return out


def test_refit_matches_built_in_symmetries_on_every_vertex(suite_detections):
    for spec, mesh, syms in suite_detections.values():
        v = mesh.vertices
        reps = unique_transforms(syms).values()
        for rot in BUILT_IN[spec.category]:
            gap = min(
                np.linalg.norm(t.apply(v) - v @ rot.T, axis=1).max() for t in reps
            ) / mesh.bounding_radius
            assert gap < 5e-4, (spec.category, gap)


def test_mirror_pairs_come_out_both_ways(suite_detections):
    _, mesh, syms = suite_detections[15]
    legs = {c for c, n in enumerate(mesh.component_names) if n.startswith("leg")}
    pairs = {(s.source_component, s.target_component) for s in syms}
    leg_pairs = {(i, j) for i, j in pairs if i in legs and j in legs and i != j}
    assert leg_pairs
    assert leg_pairs == {(j, i) for i, j in leg_pairs}


def test_early_reject_matches_full_rmsd():
    mesh = four_box_mesh()
    rng = np.random.default_rng(11)
    sources = [_component_cloud(mesh, c, 256, rng)[0] for c in range(2)]
    targets = [_component_cloud(mesh, c, 2048, rng)[0] for c in range(2)]

    queried = []

    class CountingTree(cKDTree):
        def query(self, x, *args, **kwargs):
            queried.append(len(x))
            return super().query(x, *args, **kwargs)

    trees = [CountingTree(t) for t in targets]
    plain = [cKDTree(t) for t in targets]
    early = 0
    for _ in range(40):
        rot = Rotation.from_rotvec(rng.normal(scale=0.15, size=3)).as_matrix()
        if rng.random() < 0.5:
            rot = rot @ np.diag([-1.0, 1.0, 1.0])
        t = RigidTransform(rot, rng.normal(scale=0.05, size=3))
        rmsd = np.array([
            [np.sqrt(np.mean(tree.query(t.apply(src))[0] ** 2)) for tree in plain]
            for src in sources
        ])
        # gates on both sides of each cloud's best rmsd, some within 1e-9
        for accept in np.concatenate([rmsd.min(axis=1), rmsd.ravel()]) * rng.choice(
            [0.2, 0.5, 1.0 - 1e-9, 1.0 + 1e-9, 2.0], size=6
        ):
            want = bool(np.all((rmsd < accept).any(axis=1)))
            queried.clear()
            got = _maps_arrangement(t, sources, trees, lambda c, j: True, accept)
            assert got == want
            early += queried.count(32) > queried.count(256 - 32)
    assert early > 0  # the early exit was taken


def test_point_to_plane_refit_keeps_reflection():
    base = np.array([
        [0.0, 0.0, 0.0], [0.3, 0.0, 0.0], [0.3, 0.6, 0.0], [0.0, 0.6, 0.0],
        [0.0, 0.0, 0.2], [0.3, 0.0, 0.2], [0.3, 0.6, 0.2], [0.0, 0.6, 0.2],
    ]) + np.array([0.5, 0.0, -0.1])
    quads = [
        (0, 1, 5, 4), (4, 5, 6, 7), (1, 2, 6, 5),
        (0, 4, 7, 3), (0, 3, 2, 1), (3, 7, 6, 2),
    ]
    box = np.array([f for a, b, c, d in quads for f in ((a, b, c), (a, c, d))])
    mirrored = base * np.array([-1.0, 1.0, 1.0])
    mesh = build_mesh(
        np.vstack([base, mirrored]), np.vstack([box, box[:, [0, 2, 1]] + 8]),
        ("left", "right"), np.repeat([0, 1], 12),
    )
    rng = np.random.default_rng(2)
    src = _component_cloud(mesh, 0, 4096, rng)[0]
    dst, faces = _component_cloud(mesh, 1, 4096, rng)
    mirror = np.diag([-1.0, 1.0, 1.0])
    start = RigidTransform(
        y_rotation(0.05) @ mirror, np.array([0.02, -0.01, 0.015])
    )
    fit, rmsd = _refit(
        src, dst, mesh.face_normals[faces], cKDTree(dst), start, 12,
        mesh.bounding_center, mesh.bounding_radius,
    )
    assert fit.det == -1.0
    gap = np.linalg.norm(fit.apply(base) - base @ mirror.T, axis=1).max()
    assert gap < 1e-3 * mesh.bounding_radius
    assert rmsd < 0.02 * mesh.bounding_radius
