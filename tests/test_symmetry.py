import dataclasses
import math

import numpy as np
import pytest

from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree
from scipy.spatial.transform import Rotation

from matseg import symmetry
from matseg.mesh import build_mesh, y_rotation
from matseg.sampling import draw_surface
from matseg.symmetry import (
    _CLUSTER_ANGLE,
    _CLUSTER_AXIS,
    _CLUSTER_TRANSLATION,
    _REFIT_STEP,
    _TRIVIAL_ANGLE,
    DetectedSymmetry,
    RigidTransform,
    _cluster,
    _refit,
    angle_axes,
    detect_symmetries,
    load_symmetries,
    load_symmetry_pairs,
    save_symmetries,
    save_symmetry_pairs,
    symmetry_pairs,
)
from matseg.synth import SynthSpec, _box, benchmark_suite, generate



def transforms_by_id(symmetries):
    """Each transform id's transform."""
    return {s.transform_id: s.transform for s in symmetries}


def component_cloud(mesh, comp, n, rng):
    """n area-weighted surface points of a component, and the face of each."""
    faces, _, points = draw_surface(mesh, mesh.component_faces(comp), n, rng)
    return points, faces


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


def test_angle_axis_of_identity_is_upright():
    angle, axis = RigidTransform(np.eye(3), np.zeros(3)).angle_axis()
    assert angle == 0.0
    assert axis.tolist() == [0.0, 1.0, 0.0]


@pytest.mark.parametrize("gap", [1e-8, 5e-7, 0.0])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_angle_axis_near_half_turn(gap, sign):
    # proper turns and their reflections (read through -R) near angle pi,
    # where the axis sign is arbitrary
    want = np.array([1.0, 2.0, -0.5]) / math.sqrt(5.25)
    rot = Rotation.from_rotvec((math.pi - gap) * want).as_matrix()
    angle, axis = RigidTransform(sign * rot, np.zeros(3)).angle_axis()
    assert abs(angle - (math.pi - gap)) < 1e-7
    assert min(np.linalg.norm(axis - want), np.linalg.norm(axis + want)) < 1e-7


def test_angle_axes_of_a_stack_match_one_at_a_time():
    rots = Rotation.random(8, random_state=np.random.default_rng(3)).as_matrix()
    rots[1] = np.eye(3)
    rots[2] = Rotation.from_rotvec([0.0, math.pi - 1e-8, 0.0]).as_matrix()
    rots[::3] *= -1.0  # reflections
    angles, axes = angle_axes(rots)
    for r, angle, axis in zip(rots, angles, axes):
        one_angle, one_axis = RigidTransform(r, np.zeros(3)).angle_axis()
        assert angle == one_angle
        assert np.array_equal(axis, one_axis)


def moved_box_case(true):
    """Box 0 of the four boxes: a sparse source cloud, and the dense cloud
    it was drawn from moved by ``true``, with its face normals, as the one
    target of a refit."""
    mesh = four_box_mesh()
    points, faces = component_cloud(mesh, 0, 2048, np.random.default_rng(5))
    dst = true.apply(points)
    return mesh, points[::8], [dst], [mesh.face_normals[faces] @ true.rotation.T], [cKDTree(dst)]


def test_icp_recovers_known_rotation():
    true = RigidTransform(y_rotation(math.radians(30.0)), np.array([0.3, -0.1, 0.2]))
    mesh, src, targets, normals, trees = moved_box_case(true)
    start = y_rotation(math.radians(22.0))
    r, t, dists = _refit([(src, 0)], targets, normals, trees, start[None],
                         (targets[0].mean(axis=0) - start @ src.mean(axis=0))[None], 12,
                         mesh.bounding_center, mesh.bounding_radius)
    assert np.sqrt(np.mean(dists[0] ** 2)) < 1e-9
    angle, _ = RigidTransform(r[0] @ true.rotation.T, np.zeros(3)).angle_axis()
    assert angle < 1e-6


def test_icp_keeps_reflection_sign():
    mirror = np.diag([-1.0, 1.0, 1.0])
    true = RigidTransform(mirror, np.array([0.2, 0.0, 0.0]))
    mesh, src, targets, normals, trees = moved_box_case(true)
    start = y_rotation(math.radians(4.0)) @ mirror
    r, t, dists = _refit([(src, 0)], targets, normals, trees, start[None], np.array([[0.22, 0.01, -0.01]]),
                         12, mesh.bounding_center, mesh.bounding_radius)
    assert np.sqrt(np.mean(dists[0] ** 2)) < 1e-9
    assert RigidTransform(r[0], t[0]).det == -1.0


def box_starts(mesh, rng):
    """16 of the detection's starts, 8 turns about the upright axis, each
    alone and after the x mirror; the dense cloud of box 1 with its face
    normals as the one target; and two source clouds: box 0, and boxes 0
    and 2 at once, which cannot fit one box."""
    src = component_cloud(mesh, 0, 256, rng)[0]
    pair = np.vstack([src[:128], component_cloud(mesh, 2, 128, rng)[0]])
    dst, faces = component_cloud(mesh, 1, 8192, rng)
    turns = [y_rotation(k * math.pi / 4) for k in range(8)]
    starts = np.stack(turns + [r @ np.diag([-1.0, 1.0, 1.0]) for r in turns])
    return starts, [dst], [mesh.face_normals[faces]], [cKDTree(dst)], (src, pair)


def test_stacked_starts_match_single_starts():
    # the starts run as one stack on one shared source cloud and one at a
    # time give bitwise the same motions and distances
    mesh = four_box_mesh()
    radius, center = mesh.bounding_radius, mesh.bounding_center
    starts, targets, normals, trees, clouds = box_starts(mesh, np.random.default_rng(4))
    accept = 0.02 * radius
    rmsds = []
    for cloud in clouds:
        t0 = targets[0].mean(axis=0) - starts @ cloud.mean(axis=0)
        rots, trans, dists = _refit([(cloud, 0)], targets, normals, trees, starts, t0, 12, center, radius,
                                    abandon=2.0 * accept)
        assert (np.linalg.det(rots) < 0.0).tolist() == [False] * 8 + [True] * 8
        for k in range(len(starts)):
            r, t, d = _refit([(cloud, 0)], targets, normals, trees, starts[k:k + 1], t0[k:k + 1], 12,
                             center, radius, abandon=2.0 * accept)
            assert np.array_equal(rots[k], r[0])
            assert np.array_equal(trans[k], t[0])
            assert np.array_equal(dists[0][k], d[0][0])
        rmsds.append(np.sqrt(np.mean(dists[0] ** 2, axis=1)))
    # some starts land under the gate, some are abandoned above it
    rmsds = np.concatenate(rmsds)
    assert (rmsds < accept).any() and (rmsds >= 2.0 * accept).any()


def test_refit_abandons_a_start_after_its_first_step():
    """A start still 2 gates off after its first step returns its step-1
    motion and distances; a good start in the same stack runs on. Every
    other start is put 0.3 R off the target's centroid."""
    mesh = four_box_mesh()
    radius, center = mesh.bounding_radius, mesh.bounding_center
    starts, targets, normals, trees, (cloud, _) = box_starts(mesh, np.random.default_rng(4))
    t0 = targets[0].mean(axis=0) - starts @ cloud.mean(axis=0)
    t0[1::2, 0] += 0.3 * radius
    abandon = 0.04 * radius
    rots, trans, dists = _refit([(cloud, 0)], targets, normals, trees, starts, t0, 12, center, radius,
                                abandon=abandon)
    one = _refit([(cloud, 0)], targets, normals, trees, starts, t0, 1, center, radius)
    first = np.sqrt(np.mean(one[2][0] ** 2, axis=1))
    dropped = first >= abandon
    assert dropped.any() and (~dropped).any()
    assert np.array_equal(rots[dropped], one[0][dropped])
    assert np.array_equal(trans[dropped], one[1][dropped])
    assert np.array_equal(dists[0][dropped], one[2][0][dropped])
    # the kept starts ran past their first step, as with no abandon gate
    alone = _refit([(cloud, 0)], targets, normals, trees, starts, t0, 12, center, radius)
    assert np.array_equal(rots[~dropped], alone[0][~dropped])
    assert not np.array_equal(rots[~dropped], one[0][~dropped])


def dict_cluster(candidates, radius):
    """Clustering one (RigidTransform, source, target, rmsd) record at a
    time: the link matrix, then dicts of members and of the best rmsd per
    (cluster, source, target), the first on ties, and the chordal mean."""
    dets = np.array([c[0].det for c in candidates])
    trans = np.stack([c[0].translation for c in candidates])
    angs, axes = angle_axes(np.stack([c[0].rotation for c in candidates]))
    same = dets[:, None] == dets[None, :]
    same &= np.abs(angs[:, None] - angs[None, :]) <= _CLUSTER_ANGLE
    diff = trans[:, None, :] - trans[None, :, :]
    same &= np.einsum("abk,abk->ab", diff, diff) <= (_CLUSTER_TRANSLATION * radius) ** 2
    dots = np.clip(axes @ axes.T, -1.0, 1.0)
    near_pi = angs > np.pi - _CLUSTER_ANGLE
    dots = np.where(near_pi[:, None] & near_pi[None, :], np.abs(dots), dots)
    axis_ok = np.arccos(dots) <= _CLUSTER_AXIS
    small = angs <= _TRIVIAL_ANGLE
    axis_ok |= small[:, None] & small[None, :]
    same &= axis_ok
    cluster_ids = connected_components(csr_matrix(same), directed=False)[1]

    members, pair_best = {}, {}
    for (t, i, j, rmsd), cid in zip(candidates, cluster_ids.tolist()):
        members.setdefault(cid, []).append(t)
        key = (cid, i, j)
        if key not in pair_best or rmsd < pair_best[key]:
            pair_best[key] = rmsd
    representative = {}
    for cid, ts in members.items():
        u, _, vt = np.linalg.svd(np.mean([t.rotation for t in ts], axis=0))
        if np.linalg.det(u @ vt) * ts[0].det < 0:
            u[:, -1] = -u[:, -1]
        representative[cid] = RigidTransform(u @ vt, np.mean([t.translation for t in ts], axis=0))
    out = [DetectedSymmetry(representative[cid], i, j, rmsd, cid) for (cid, i, j), rmsd in pair_best.items()]
    return sorted(out, key=lambda d: (d.transform_id, d.source_component, d.target_component))


def random_candidates(rng):
    """Candidates around a few hidden transforms: turns and mirrors, half
    turns whose axis flips sign between members, and near-identities; the
    members scatter across the link gates, and rmsds repeat."""
    hidden = []
    for _ in range(int(rng.integers(1, 6))):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.choice([rng.uniform(0.0, np.pi), np.pi - rng.uniform(0.0, 0.03), rng.uniform(0.0, 0.03)])
        hidden.append((angle, axis, rng.random() < 0.5, rng.normal(scale=0.1, size=3)))
    candidates = []
    for _ in range(int(rng.integers(1, 40))):
        angle, axis, mirrored, t = hidden[int(rng.integers(len(hidden)))]
        sign = rng.choice([-1.0, 1.0]) if angle > 3.0 else 1.0
        rot = Rotation.from_rotvec(sign * angle * axis).as_matrix()
        rot = Rotation.from_rotvec(rng.normal(scale=0.03, size=3)).as_matrix() @ rot
        if mirrored:
            rot = -rot
        moved = t + rng.normal(scale=0.02, size=3)
        candidates.append((RigidTransform(rot, moved), int(rng.integers(3)), int(rng.integers(3)),
                           float(rng.choice([0.001, 0.002, 0.003]))))
    return candidates


def test_cluster_matches_the_record_by_record_grouping():
    rng = np.random.default_rng(21)
    radius = 1.0
    clusters = []
    for _ in range(100):
        candidates = random_candidates(rng)
        want = dict_cluster(candidates, radius)
        got = _cluster(
            np.stack([t.rotation for t, *_ in candidates]), np.stack([t.translation for t, *_ in candidates]),
            np.array([c[1] for c in candidates]), np.array([c[2] for c in candidates]),
            np.array([c[3] for c in candidates]), radius,
        )
        key = [(s.transform_id, s.source_component, s.target_component, s.rmsd) for s in want]
        assert [(s.transform_id, s.source_component, s.target_component, s.rmsd) for s in got] == key
        for a, b in zip(got, want):
            assert np.abs(a.transform.rotation - b.transform.rotation).max() <= 1e-12
            assert np.abs(a.transform.translation - b.transform.translation).max() <= 1e-12
        clusters.append(len({s.transform_id for s in want}))
    # the sets hold single clusters and many
    assert min(clusters) == 1 and max(clusters) >= 5
    empty = np.zeros((0, 3, 3)), np.zeros((0, 3)), np.zeros(0, int), np.zeros(0, int), np.zeros(0)
    assert _cluster(*empty, radius) == []


def component_centroids(mesh) -> np.ndarray:
    return np.array([
        mesh.vertices[np.unique(mesh.faces[mesh.component_faces(c)])].mean(axis=0)
        for c in range(mesh.n_components)
    ])


def assert_pairs_follow(mesh, syms, tid, rotation):
    """Transform ``tid`` lists every component once as a source, each with
    the component that ``rotation`` (about the origin) carries it onto."""
    cents = component_centroids(mesh)
    want = {
        c: int(np.argmin(np.linalg.norm(cents - rotation @ cents[c], axis=1)))
        for c in range(mesh.n_components)
    }
    got = [(s.source_component, s.target_component) for s in syms if s.transform_id == tid]
    assert sorted(c for c, _ in got) == list(range(mesh.n_components)), got
    assert dict(got) == want


def test_four_boxes_have_quarter_turn():
    mesh = four_box_mesh()
    syms = detect_symmetries(mesh, seed=0)
    assert syms, "no symmetries detected"
    reps = transforms_by_id(syms)
    angles = []
    quarter = []
    for tid, rep in reps.items():
        angle, axis = rep.angle_axis()
        if rep.det > 0:
            angles.append((angle, abs(axis[1])))
            if abs(angle - math.pi / 2) < 1e-3 and abs(axis[1]) > 0.999:
                quarter.append(tid)
    assert quarter, f"quarter turn missing; proper angles: {angles}"
    # every box is congruent to every other, so the search anchors on one
    # box; the moment pairing still pairs all four
    for tid in quarter:
        assert_pairs_follow(mesh, syms, tid, reps[tid].rotation)


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
    pts = np.random.default_rng(0).normal(size=(20, 3))
    moved = pts
    for _ in range(4):
        moved = quarter.apply(moved)
    assert np.allclose(moved, pts, atol=1e-6)


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


def loop_symmetry_pairs(mesh, syms, residual_cutoff=0.1):
    """symmetry_pairs face by face: per unordered face pair the smallest
    residual, the first transform on ties."""
    centroids = mesh.face_centroids()
    best = {}
    for sym in syms:
        sf = mesh.component_faces(sym.source_component)
        tf = mesh.component_faces(sym.target_component)
        dist, idx = cKDTree(centroids[tf]).query(sym.transform.apply(centroids[sf]))
        s = np.minimum(dist / mesh.bounding_radius, 1.0)
        for k in range(len(sf)):
            fa, fb = int(sf[k]), int(tf[idx[k]])
            if s[k] > residual_cutoff or fa == fb:
                continue
            key = (min(fa, fb), max(fa, fb))
            if key not in best or s[k] < best[key][2]:
                best[key] = (fa, fb, float(s[k]), sym.transform_id)
    return [best[k] for k in sorted(best)]


def test_symmetry_pairs_match_face_by_face_reference():
    # exact transforms tie on the pairs they share (the quarter turn, its
    # inverse and a repeat of one of its entries under later ids; a box
    # onto itself under the x-mirror reaches each face pair both ways),
    # and nudged ones leave residuals of every size
    mesh = four_box_mesh()
    rng = np.random.default_rng(9)
    quarter = RigidTransform(y_rotation(math.pi / 2), np.zeros(3))
    mirror = RigidTransform(np.diag([-1.0, 1.0, 1.0]), np.zeros(3))
    syms = [DetectedSymmetry(quarter, c, (c + 1) % 4, 0.0, 0) for c in range(4)]
    syms += [DetectedSymmetry(RigidTransform(quarter.rotation.T, np.zeros(3)), c, (c + 3) % 4, 0.0, 1)
             for c in range(4)]
    syms += [DetectedSymmetry(quarter, 2, 3, 0.0, 2)]
    syms += [DetectedSymmetry(mirror, c, j, 0.0, 3) for c, j in ((0, 2), (1, 1), (2, 0), (3, 3))]
    for tid in range(4, 10):
        nudge = Rotation.from_rotvec(rng.normal(scale=0.05, size=3)).as_matrix()
        shift = rng.normal(scale=0.03, size=3)
        c = int(rng.integers(4))
        syms.append(DetectedSymmetry(RigidTransform(nudge @ quarter.rotation, shift), c, (c + 1) % 4, 0.0, tid))
    want = loop_symmetry_pairs(mesh, syms)
    got = [(p.face_a, p.face_b, p.s, p.transform_id) for p in symmetry_pairs(mesh, syms)]
    assert got == want
    tids = {t for *_, t in want}
    assert tids >= {0, 3, 4} and 2 not in tids
    assert symmetry_pairs(mesh, []) == []


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
# axis for tables, the x-mirror for chairs and cabinets
QUARTER = y_rotation(math.pi / 2)
BUILT_IN = {
    "table": [np.linalg.matrix_power(QUARTER, k) for k in (1, 2, 3)],
    "chair": [np.diag([-1.0, 1.0, 1.0])],
    "cabinet": [np.diag([-1.0, 1.0, 1.0])],
}


@pytest.fixture(scope="module")
def suite_detections():
    """Jitter-free suite shapes 2 (prism table), 4 (round-top table, whose
    top spins freely onto itself), 15 (box chair) and 24 (cabinet), seed 5."""
    out = {}
    for idx in (2, 4, 15, 24):
        spec = benchmark_suite()[idx]
        assert spec.jitter == 0.0
        mesh = generate(spec)
        out[idx] = (spec, mesh, detect_symmetries(mesh, seed=5))
    return out


def test_refit_matches_built_in_symmetries_on_every_vertex(suite_detections):
    for spec, mesh, syms in suite_detections.values():
        v = mesh.vertices
        reps = transforms_by_id(syms).values()
        for rot in BUILT_IN[spec.category]:
            gap = min(
                np.linalg.norm(t.apply(v) - v @ rot.T, axis=1).max() for t in reps
            ) / mesh.bounding_radius
            assert gap < 5e-4, (spec.category, gap)


def test_built_in_symmetries_pair_every_component(suite_detections):
    for spec, mesh, syms in suite_detections.values():
        v = mesh.vertices
        reps = transforms_by_id(syms)
        for rot in BUILT_IN[spec.category]:
            tid = min(reps, key=lambda k: np.linalg.norm(reps[k].apply(v) - v @ rot.T, axis=1).max())
            assert_pairs_follow(mesh, syms, tid, rot)


@pytest.fixture(scope="module")
def round_top_tables():
    """Jitter-free round-top tables with 3 and 5 box legs, by leg count,
    each with its detection (seed 5)."""
    out = {}
    for legs in (3, 5):
        mesh = generate(SynthSpec(category="table", legs=legs, leg_shape="box", top_shape="round",
                                  materials={"top": ["wood"], "leg": ["metal"]}))
        out[legs] = mesh, detect_symmetries(mesh, seed=5)
    return out


@pytest.mark.parametrize("legs", [3, 5])
def test_round_top_tables_keep_every_leg_symmetry(round_top_tables, legs):
    """A 16-gon top stays on itself under turns the start ring cannot tell
    apart, so the search anchors on a box leg. Every turn and mirror that
    carries the legs onto each other comes out once, pairing each leg with
    the leg it carries it onto; the top is paired only under a symmetry
    that is also the top's own, since elsewhere its probe slides to the
    nearest turn of the 16-gon."""
    mesh, syms = round_top_tables[legs]
    reps = transforms_by_id(syms)
    radius = mesh.bounding_radius
    top = mesh.component_names.index("top")
    legs_c = [c for c in range(mesh.n_components) if c != top]
    leg_v = mesh.vertices[np.unique(mesh.faces[np.concatenate([mesh.component_faces(c) for c in legs_c])])]
    top_v = mesh.vertices[np.unique(mesh.faces[mesh.component_faces(top)])]
    cents = component_centroids(mesh)
    turns = [y_rotation(2.0 * math.pi * k / legs) for k in range(legs)]
    built_in = turns[1:] + [r @ np.diag([1.0, 1.0, -1.0]) for r in turns]
    assert len(reps) == len(built_in)
    for rot in built_in:
        gaps = {k: np.linalg.norm(t.apply(leg_v) - leg_v @ rot.T, axis=1).max() / radius
                for k, t in reps.items()}
        tid = min(gaps, key=gaps.get)
        assert gaps[tid] < 5e-4
        top_shared = cKDTree(top_v).query(top_v @ rot.T)[0].max() < 1e-9 * radius
        want = {
            c: int(np.argmin(np.linalg.norm(cents - rot @ cents[c], axis=1)))
            for c in legs_c + ([top] if top_shared else [])
        }
        got = [(s.source_component, s.target_component) for s in syms if s.transform_id == tid]
        assert len(got) == len(dict(got)) and dict(got) == want, (rot.round(3), got)


@pytest.mark.parametrize("index, seed", [(26, 344051081026), (25, 80521325025)])
def test_jittered_cabinets_keep_the_x_mirror(index, seed):
    """Cabinets whose x-mirror fit sits near the gate (jitter 0.002): the
    mirror pairs every component, doors and knobs swapped."""
    spec = dataclasses.replace(benchmark_suite()[index], jitter=0.002, seed=seed)
    mesh = generate(spec)
    syms = detect_symmetries(mesh, seed=seed)
    reps = transforms_by_id(syms)
    v = mesh.vertices
    mirror = np.diag([-1.0, 1.0, 1.0])
    gaps = {k: np.linalg.norm(t.apply(v) - v @ mirror.T, axis=1).max() / mesh.bounding_radius
            for k, t in reps.items()}
    tid = min(gaps, key=gaps.get)
    assert gaps[tid] < 0.02
    assert_pairs_follow(mesh, syms, tid, mirror)


def test_jittered_cabinet_finds_no_non_symmetry():
    """Suite index 25 at jitter 0.005, seed 3025: every detected transform
    takes each vertex to within the jitter on both ends plus the gate of
    some vertex, and one of them is the x-mirror."""
    spec = dataclasses.replace(benchmark_suite()[25], jitter=0.005, seed=3025)
    mesh = generate(spec)
    reps = transforms_by_id(detect_symmetries(mesh, seed=3025)).values()
    v = mesh.vertices
    tol = (2.0 * math.sqrt(3.0) * 0.005 + 0.02) * mesh.bounding_radius
    tree = cKDTree(v)
    for t in reps:
        assert tree.query(t.apply(v))[0].max() <= tol, (t.kind, t.angle_axis())
    mirror = np.diag([-1.0, 1.0, 1.0])
    assert min(np.linalg.norm(t.apply(v) - v @ mirror.T, axis=1).max() for t in reps) <= tol


# Detection output, pinned: per transform id, the target of each source
# component 0, 1, ..., and the number of face pairs. Jittered suite shapes 2
# (prism table), 15 (box chair) and 25 (cabinet) at jitter 0.002 and seed
# 1000 + index, as the benchmark's run seed 1 makes them, and the round-top
# table with five box legs. A change that alters any fit, cluster or gate
# shows here first.
PINNED = {
    2: (192, {0: (3, 0, 1, 2, 4), 1: (1, 2, 3, 0, 4), 2: (2, 3, 0, 1, 4)}),
    15: (35, {0: (1, 0, 3, 2, 4, 5)}),
    25: (46, {0: (0, 1, 2, 3, 4), 1: (0, 2, 1, 4, 3)}),
    "round": (202, {
        0: (4, 3, 2, 1, 0), 1: (3, 4, 0, 1, 2), 2: (2, 1, 0, 4, 3), 3: (3, 2, 1, 0, 4),
        4: (1, 0, 4, 3, 2), 5: (0, 4, 3, 2, 1, 5), 6: (4, 0, 1, 2, 3), 7: (1, 2, 3, 4, 0),
        8: (2, 3, 4, 0, 1),
    }),
}


@pytest.mark.parametrize("shape", list(PINNED))
def test_detection_output_is_pinned(round_top_tables, shape):
    if shape == "round":
        mesh, syms = round_top_tables[5]
    else:
        spec = dataclasses.replace(benchmark_suite()[shape], jitter=0.002, seed=1000 + shape)
        mesh = generate(spec)
        syms = detect_symmetries(mesh, seed=spec.seed)
    n_pairs, targets = PINNED[shape]
    want = [(tid, c, j) for tid, row in targets.items() for c, j in enumerate(row)]
    assert [(s.transform_id, s.source_component, s.target_component) for s in syms] == want
    assert len(symmetry_pairs(mesh, syms)) == n_pairs


def test_detection_query_volume(monkeypatch):
    """KD query points of one detection on a jittered suite table (index 2,
    jitter 0.002, seed 1002). Counts are deterministic: one point-to-plane
    fitter for the starts and the verification, with no sharpening pass
    between them, makes 182,016; point-to-point starts and a sharpening
    refit of each cluster made 206,336; a KD check of each sparse cloud
    before the joint refit made 214,784; re-querying each pair's whole
    dense cloud for the gate, with refits stopped at a 1e-9 R step, made
    365,056."""
    queried = []

    class CountingTree(cKDTree):
        def query(self, x, *args, **kwargs):
            queried.append(np.asarray(x).size // 3)  # points of a (n, 3) or (S, n, 3) query
            return super().query(x, *args, **kwargs)

    monkeypatch.setattr(symmetry, "cKDTree", CountingTree)
    spec = dataclasses.replace(benchmark_suite()[2], jitter=0.002, seed=1002)
    assert detect_symmetries(generate(spec), seed=spec.seed)
    assert sum(queried) <= 190_000


def crossed_bar_table(half_depth):
    """Two crossed bars, a post and a top of the given half depth (z): the
    bars are congruent and share one centroid, so only their extents along
    x and z tell them apart."""
    boxes = [([-0.5, 0.0, -0.05], [0.5, 0.08, 0.05]), ([-0.05, 0.0, -0.5], [0.05, 0.08, 0.5]),
             ([-0.05, 0.08, -0.05], [0.05, 0.9, 0.05]), ([-0.6, 0.9, -half_depth], [0.6, 1.0, half_depth])]
    parts = [_box(lo, hi) for lo, hi in boxes]
    return build_mesh(np.vstack([v for v, _ in parts]), np.vstack([f + 8 * k for k, (_, f) in enumerate(parts)]),
                      ("bar_x", "bar_z", "post", "top"), np.repeat(np.arange(4), 12))


MIRROR_X, MIRROR_Z = np.diag([-1.0, 1.0, 1.0]), np.diag([1.0, 1.0, -1.0])
# the mirrors across the planes x = z and x = -z
DIAGONALS = [np.array([[0.0, 0.0, s], [0.0, 1.0, 0.0], [s, 0.0, 0.0]]) for s in (1.0, -1.0)]


@pytest.mark.parametrize("half_depth, rotations", [
    (0.45, [QUARTER @ QUARTER, MIRROR_X, MIRROR_Z]),
    (0.6, [np.linalg.matrix_power(QUARTER, k) for k in (1, 2, 3)]
     + [MIRROR_X, MIRROR_Z, *DIAGONALS]),
])
def test_crossed_bars_pair_by_extent(half_depth, rotations):
    """A rectangular top keeps the half turn and the axis mirrors, each
    taking every component onto itself; a square top adds the quarter turns
    and the diagonal mirrors, which swap the bars. Pairing by centroid
    alone cannot tell the bars apart and loses these transforms."""
    mesh = crossed_bar_table(half_depth)
    syms = detect_symmetries(mesh, seed=3)
    reps = transforms_by_id(syms)
    assert len(reps) == len(rotations)
    v = mesh.vertices
    parts = [v[np.unique(mesh.faces[mesh.component_faces(c)])] for c in range(mesh.n_components)]
    for rot in rotations:
        gaps = {k: np.linalg.norm(t.apply(v) - v @ rot.T, axis=1).max() for k, t in reps.items()}
        tid = min(gaps, key=gaps.get)
        assert gaps[tid] < 5e-4 * mesh.bounding_radius
        want = {c: int(np.argmin([cKDTree(q).query(p @ rot.T)[0].max() for q in parts]))
                for c, p in enumerate(parts)}
        got = [(s.source_component, s.target_component) for s in syms if s.transform_id == tid]
        assert len(got) == len(parts) and dict(got) == want, (rot, got)


def test_mirror_pairs_come_out_both_ways(suite_detections):
    _, mesh, syms = suite_detections[15]
    legs = {c for c, n in enumerate(mesh.component_names) if n.startswith("leg")}
    pairs = {(s.source_component, s.target_component) for s in syms}
    leg_pairs = {(i, j) for i, j in pairs if i in legs and j in legs and i != j}
    assert leg_pairs
    assert leg_pairs == {(j, i) for i, j in leg_pairs}


def stacked_refit_case(rotation):
    """The four boxes, three (strided cloud, target) pairs under the true
    motion ``rotation``, and a start 3 degrees and 0.02 R off it."""
    mesh = four_box_mesh()
    radius = mesh.bounding_radius
    rng = np.random.default_rng(8)
    dense = [component_cloud(mesh, c, 8192, rng) for c in range(4)]
    targets = [points for points, _ in dense]
    normals = [mesh.face_normals[faces] for _, faces in dense]
    true = RigidTransform(rotation, np.zeros(3))
    cents = component_centroids(mesh)
    pairs = [(c, int(np.argmin(np.linalg.norm(cents - true.apply(cents[c]), axis=1)))) for c in range(3)]
    axis = np.array([1.0, 2.0, -0.5]) / math.sqrt(5.25)
    nudge = Rotation.from_rotvec(math.radians(3.0) * axis).as_matrix()
    start = RigidTransform(nudge @ rotation, 0.02 * radius * np.array([0.6, -0.8, 0.0]))
    moving = [(targets[c][::4], j) for c, j in pairs]
    return mesh, true, moving, targets, normals, [cKDTree(t) for t in targets], start


@pytest.mark.parametrize("rotation", [QUARTER, np.diag([-1.0, 1.0, 1.0])])
def test_stacked_refit_recovers_the_shared_motion(rotation):
    """One motion fitted over three (component, target) pairs at once, from
    a start 3 degrees and 0.02 R off: the quarter turn carries each box
    onto the next, the x-mirror swaps boxes 0 and 2 and keeps box 1 on
    itself."""
    mesh, true, moving, targets, normals, trees, start = stacked_refit_case(rotation)
    radius = mesh.bounding_radius
    r, t, _ = _refit(moving, targets, normals, trees, start.rotation[None], start.translation[None], 12,
                     mesh.bounding_center, radius)
    fit = RigidTransform(r[0], t[0])
    assert fit.det == true.det
    gap = np.linalg.norm(fit.apply(mesh.vertices) - true.apply(mesh.vertices), axis=1).max()
    assert gap < 1e-3 * radius


@pytest.mark.parametrize("rotation", [QUARTER, np.diag([-1.0, 1.0, 1.0])])
def test_refit_distances_hold_under_the_returned_fit(rotation):
    """The nearest distances the refit returns, which the joint refit's gate
    reads, are those of the returned fit within the step that stops it; a
    refit capped after one step queries again at the fit it returns."""
    mesh, _, moving, targets, normals, trees, start = stacked_refit_case(rotation)
    radius = mesh.bounding_radius
    for max_iter, bound in ((12, _REFIT_STEP * radius), (1, 0.0)):
        r, t, dists = _refit(moving, targets, normals, trees, start.rotation[None], start.translation[None],
                             max_iter, mesh.bounding_center, radius)
        fit = RigidTransform(r[0], t[0])
        assert len(dists) == len(moving)
        for (cloud, j), dist in zip(moving, dists):
            fresh = trees[j].query(fit.apply(cloud))[0]
            assert np.abs(dist[0] - fresh).max() <= bound


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
    src = component_cloud(mesh, 0, 4096, rng)[0]
    dst, faces = component_cloud(mesh, 1, 4096, rng)
    mirror = np.diag([-1.0, 1.0, 1.0])
    start = RigidTransform(
        y_rotation(0.05) @ mirror, np.array([0.02, -0.01, 0.015])
    )
    tree = cKDTree(dst)
    r, t, _ = _refit(
        [(src, 0)], [dst], [mesh.face_normals[faces]], [tree], start.rotation[None], start.translation[None], 12,
        mesh.bounding_center, mesh.bounding_radius,
    )
    fit = RigidTransform(r[0], t[0])
    assert fit.det == -1.0
    gap = np.linalg.norm(fit.apply(base) - base @ mirror.T, axis=1).max()
    assert gap < 1e-3 * mesh.bounding_radius
    rmsd = np.sqrt(np.mean(tree.query(fit.apply(src))[0] ** 2))
    assert rmsd < 0.02 * mesh.bounding_radius
