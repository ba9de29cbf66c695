import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from conftest import dense_shapes
from matseg.bvh import TriangleBvh
from matseg.config import DescriptorConfig
from matseg.descriptor import (
    FEATURE_DIM,
    FEATURE_RADII,
    LAMBDA_PRESETS,
    DescriptorNet,
    PairSampler,
    extract_features,
    label_matrix,
    multitask_loss,
    predict_probs,
    sample_pairs,
    train_descriptor,
)
from matseg.errors import MissingDataError
from matseg.mesh import attach_labels, build_mesh
from matseg.sampling import (
    Samples,
    positions_of,
    sample_surface_points,
    subsample_even,
    visibility_filter,
)


def random_training_set(rng, n_points=60, n_mats=5, multi=6):
    feats = rng.normal(size=(n_points, FEATURE_DIM))
    labels = np.zeros((n_points, n_mats))
    labels[np.arange(n_points), rng.integers(0, n_mats, size=n_points)] = 1.0
    for i in rng.choice(n_points, size=multi, replace=False):
        labels[i, int(rng.integers(0, n_mats))] = 1.0
    return feats, labels


def small_shape():
    v = np.array([
        [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0], [1.0, 0.0, 1.0],
    ])
    f = np.array([[0, 1, 2], [0, 2, 3], [0, 4, 5], [0, 5, 1]])
    mesh = build_mesh(v, f, ("a", "b"), np.array([0, 0, 1, 1]))
    return attach_labels(mesh, {"a": ["wood"], "b": ["metal"]})


def test_margin_constant():
    assert DescriptorConfig.margin == math.sqrt(0.2) - 0.2


def test_lambda_presets():
    assert LAMBDA_PRESETS["multitask"] == (0.016, 1.0)
    assert LAMBDA_PRESETS["classification"] == (1.0, 0.0)


def test_feature_extraction_shape_and_determinism():
    mesh = small_shape()
    samples = sample_surface_points(mesh, 40, seed=4)
    a = extract_features(mesh, samples)
    b = extract_features(mesh, samples)
    assert a.shape == (40, FEATURE_DIM)
    assert np.all(np.isfinite(a))
    assert np.array_equal(a, b)
    assert extract_features(mesh, samples.take([])).shape == (0, FEATURE_DIM)


def per_sample_features(mesh, samples):
    """Reference features: the per-radius statistics one sample at a time
    (np.histogram for the angle bins), and one BVH query per thickness ray
    direction."""
    pos = positions_of(samples)
    normals = np.array([mesh.face_normals[f] for f in samples.faces])
    radius = mesh.bounding_radius
    center = mesh.bounding_center
    tree = cKDTree(pos)
    n = len(samples)
    out = np.zeros((n, FEATURE_DIM))
    for ri, frac in enumerate(FEATURE_RADII):
        hood = tree.query_ball_point(pos, frac * radius)
        base = ri * 17
        for i in range(n):
            idx = np.array(hood[i], dtype=np.int64)
            idx = idx[idx != i]
            if len(idx) == 0:
                continue
            rel = pos[idx] - pos[i]
            out[i, base + 0] = len(idx) / n
            ev = np.maximum(np.linalg.eigvalsh(rel.T @ rel / len(idx))[::-1], 0.0)
            if ev.sum() > 0.0:
                out[i, base + 1 : base + 4] = ev / ev.sum()
            if ev[0] > 0.0:
                out[i, base + 4 : base + 9] = np.array(
                    [ev[1], ev[2], ev[0] - ev[1], ev[1] - ev[2], ev[0] - ev[2]]) / ev[0]
            cos = np.clip(normals[idx] @ normals[i], -1.0, 1.0)
            hist, _ = np.histogram(np.arccos(cos), bins=4, range=(0.0, np.pi))
            out[i, base + 9 : base + 13] = hist / len(idx)
            out[i, base + 13] = np.mean(np.abs(cos))
            rr = frac * radius
            out[i, base + 14] = np.linalg.norm(rel.mean(axis=0)) / rr
            out[i, base + 15] = np.sqrt(np.mean(np.sum(rel * rel, axis=1))) / rr
            out[i, base + 16] = np.mean(rel @ normals[i]) / rr

    g = 51
    min_y = mesh.vertices[:, 1].min()
    out[:, g + 0] = (pos[:, 1] - min_y) / (2.0 * radius)
    out[:, g + 1] = (pos[:, 1] - center[1]) / radius
    out[:, g + 2] = np.linalg.norm(pos[:, [0, 2]] - center[[0, 2]], axis=1) / radius
    out[:, g + 3] = (radius - np.linalg.norm(pos - center, axis=1)) / radius
    out[:, g + 4] = normals[:, 1]
    out[:, g + 5] = np.abs(normals[:, 1])
    bvh = TriangleBvh(mesh.vertices, mesh.faces)
    cap = 2.0 * radius
    origins = pos - 1e-5 * radius * normals

    def depth(dirs):
        t = bvh.first_hit(origins, dirs, t_min=1e-9 * radius)
        return np.minimum(np.where(np.isfinite(t), t, cap), cap)

    out[:, g + 6] = depth(-normals) / cap
    up = np.array([0.0, 1.0, 0.0])
    for k in range(4):
        side = np.cross(normals, up + 1e-3 * (k + 1))
        nrm = np.linalg.norm(side, axis=1, keepdims=True)
        side = np.where(nrm > 1e-9, side / np.maximum(nrm, 1e-12), 0.0)
        angle = 2.0 * np.pi * k / 4
        dirs = -normals + 0.3 * (np.cos(angle) * side + np.sin(angle) * np.cross(normals, side))
        out[:, g + 7] += depth(dirs / np.linalg.norm(dirs, axis=1, keepdims=True))
    out[:, g + 7] /= 4 * cap

    comp = np.array([mesh.face_component[f] for f in samples.faces])
    centroids = mesh.face_centroids()
    for c in np.unique(comp):
        faces = mesh.component_faces(c)
        w = mesh.face_areas[faces]
        verts = mesh.vertices[np.unique(mesh.faces[faces])]
        lo, hi = verts.min(axis=0), verts.max(axis=0)
        rows = comp == c
        out[rows, g + 8] = w.sum() / mesh.total_area()
        out[rows, g + 9] = len(faces) / mesh.n_faces
        out[rows, g + 10] = np.linalg.norm(pos[rows] - (centroids[faces] * w[:, None]).sum(axis=0)
                                           / w.sum(), axis=1) / radius
        out[rows, g + 11] = np.linalg.norm(hi - lo) / (2.0 * radius)
        out[rows, g + 12] = (hi[1] - lo[1]) / (2.0 * radius)
    return out


def test_features_match_per_sample_reference_on_dense_shapes():
    for mesh in dense_shapes(levels=2):
        drawn = sample_surface_points(mesh, 600, seed=8)
        samples = subsample_even(visibility_filter(mesh, drawn), 300, seed=8)
        got = extract_features(mesh, samples)
        want = per_sample_features(mesh, samples)
        assert np.all(np.abs(got - want) <= 1e-12)


def test_features_bin_edge_angles_and_empty_neighborhoods():
    """Normals at 0, pi/2 and pi to each other land exactly on histogram
    edges; the far corner sample has no neighbor at any radius."""
    lo, hi = np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.1, 1.0])
    corners = np.array([[x, y, z] for x in (lo[0], hi[0]) for y in (lo[1], hi[1])
                        for z in (lo[2], hi[2])])
    quads = [(0, 4, 5, 1), (2, 3, 7, 6), (0, 1, 3, 2), (4, 6, 7, 5), (0, 2, 6, 4), (1, 5, 7, 3)]
    faces = np.array([t for a, b, c, d in quads for t in ((a, b, c), (a, c, d))])
    mesh = build_mesh(corners, faces, ("slab",), np.zeros(len(faces), dtype=np.int64))

    points = [
        ([0.1, 0.1, 0.1], [0.0, 1.0, 0.0]),
        ([0.12, 0.1, 0.1], [0.0, 1.0, 0.0]),
        ([0.1, 0.0, 0.1], [0.0, -1.0, 0.0]),
        ([0.0, 0.05, 0.1], [-1.0, 0.0, 0.0]),
        ([0.9, 0.1, 0.9], [0.0, 1.0, 0.0]),
    ]
    faces = [int(np.flatnonzero(np.all(mesh.face_normals == normal, axis=1))[0]) for _, normal in points]
    samples = Samples(np.array([p for p, _ in points]), np.array(faces),
                      np.full((len(points), 3), 1 / 3), np.zeros((len(points), 5)))
    got = extract_features(mesh, samples)
    assert np.all(np.abs(got - per_sample_features(mesh, samples)) <= 1e-12)
    for base in (0, 17, 34):
        # angles 0, pi and pi/2 from the first sample: edges 0, pi, pi/2
        assert np.array_equal(got[0, base + 9 : base + 13], [1 / 3, 0.0, 1 / 3, 1 / 3])
        assert np.all(got[4, base : base + 17] == 0.0)


def test_label_matrix_from_samples():
    mesh = small_shape()
    samples = sample_surface_points(mesh, 30, seed=1)
    mat = label_matrix(samples)
    assert mat.shape == (30, 5)
    for f, row in zip(samples.faces, mat):
        names = {name for name, on in zip(("wood", "plastic", "metal", "glass", "fabric"), row) if on}
        assert names == set(mesh.face_label_set(f))


def test_pair_ratio_and_combination_cycling():
    rng = np.random.default_rng(31)
    feats, labels = random_training_set(rng, n_points=100)
    batch = sample_pairs(feats, labels, 50, seed=31)
    assert len(batch) == 50
    assert int(batch.positive.sum()) == 10
    neg = [c for c, p in zip(batch.combos, batch.positive) if not p]
    counts = {}
    for c in neg:
        counts[c] = counts.get(c, 0) + 1
    # 40 negatives cycle the 10 unordered distinct-material combinations
    assert sorted(counts.values()) == [4] * 10
    assert all(a < b for a, b in counts)


def test_negatives_never_share_labels():
    rng = np.random.default_rng(32)
    feats, labels = random_training_set(rng, n_points=80, multi=20)
    batch = sample_pairs(feats, labels, 500, seed=32)
    for j in np.flatnonzero(~batch.positive):
        assert not np.any((batch.ya[j] > 0) & (batch.yb[j] > 0))


def test_positive_pairs_share_the_cycled_material():
    rng = np.random.default_rng(33)
    feats, labels = random_training_set(rng)
    batch = sample_pairs(feats, labels, 25, seed=33)
    for j in np.flatnonzero(batch.positive):
        m, m2 = batch.combos[j]
        assert m == m2
        assert batch.ya[j][m] > 0 and batch.yb[j][m] > 0


def test_impossible_combination_warns():
    feats = np.random.default_rng(0).normal(size=(4, FEATURE_DIM))
    labels = np.zeros((4, 5))
    labels[:, 0] = 1.0  # only wood present
    sampler = PairSampler(feats, labels, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = sampler.draw(10)
    # negatives need two distinct materials; only positives survive, and
    # every negative slot is skipped and counted
    assert all(batch.positive) and len(batch) == 2
    assert sampler.skipped == 8
    # a training run warns once with the total, not once per skipped draw
    with pytest.warns(UserWarning) as record:
        train_descriptor(feats, labels, epochs=3, steps_per_epoch=2, pairs_per_step=20)
    assert len(record) == 1
    assert "skipped 96 of 120 pair draws" in str(record[0].message)
    # wood and metal: only the combinations that have a pair are cycled
    labels[2:] = np.eye(5)[1]
    sampler = PairSampler(feats, labels, seed=0)
    assert sampler.pos_combos == [(0, 0), (1, 1)] and sampler.neg_combos == [(0, 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        train_descriptor(feats, labels, epochs=3, steps_per_epoch=2, pairs_per_step=20)


def test_sampler_cycles_only_combinations_with_a_pair():
    feats = np.zeros((5, FEATURE_DIM))
    labels = np.zeros((5, 5))
    labels[0, [0, 1]] = 1.0  # wood and plastic together only
    labels[1, [0, 1]] = 1.0
    labels[2, [1, 2]] = 1.0  # plastic with metal
    labels[3, 3] = 1.0  # one glass sample: no positive
    labels[4, [2, 4]] = 1.0
    sampler = PairSampler(feats, labels, seed=0)
    assert sampler.pos_combos == [(0, 0), (1, 1), (2, 2)]
    # every label set with wood holds plastic, and every one with fabric
    # holds metal; the other combinations have a pair of disjoint sets
    assert sampler.neg_combos == [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4)]
    batch = sampler.draw(200)
    assert sampler.skipped == 0 and len(batch) == 200
    for j in np.flatnonzero(~batch.positive):
        assert not np.any((batch.ya[j] > 0) & (batch.yb[j] > 0))


def brute_force_pairs(held):
    """Every valid ordered pair (i, j) of each combination, from all sample pairs."""
    n, m = held.shape
    valid = {}
    for i in range(n):
        for j in range(n):
            for a in range(m):
                for b in range(a, m):
                    ok = held[i, a] and held[j, b] and i != j
                    if ok and (a == b or not np.any(held[i] & held[j])):
                        valid.setdefault((a, b), set()).add((i, j))
    return valid


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rows=st.lists(st.lists(st.booleans(), min_size=5, max_size=5), min_size=2, max_size=12),
       n_pairs=st.integers(0, 40))
def test_sampler_matches_brute_force_enumeration(rows, n_pairs):
    held = np.array(rows, dtype=bool)  # multi-label and empty rows both occur
    feats = np.zeros((len(held), FEATURE_DIM))
    feats[:, 0] = np.arange(len(held))  # the first feature names the sample
    sampler = PairSampler(feats, held.astype(float), seed=len(rows))
    valid = brute_force_pairs(held)
    assert sampler.pos_combos == sorted(c for c in valid if c[0] == c[1])
    assert sampler.neg_combos == sorted(c for c in valid if c[0] != c[1])
    batch = sampler.draw(n_pairs)
    # every fifth slot is positive; the slots of a kind with no combination are skipped
    slot_positive = np.arange(n_pairs) % 5 == 0
    kept = np.where(slot_positive, bool(sampler.pos_combos), bool(sampler.neg_combos))
    assert np.array_equal(batch.positive, slot_positive[kept])
    assert sampler.skipped == n_pairs - kept.sum()
    ia, ib = batch.xa[:, 0].astype(int), batch.xb[:, 0].astype(int)
    for i, j, combo, positive in zip(ia, ib, batch.combos, batch.positive):
        assert (combo[0] == combo[1]) == positive
        assert (i, j) in valid[combo]


def test_direct_draw_is_uniform_over_the_valid_pairs():
    # three label sets: wood (0-2), plastic (3-6), wood with plastic (7-8);
    # the only negative combination, (wood, plastic), has 3 x 4 valid pairs
    held = np.zeros((9, 5), dtype=bool)
    held[[0, 1, 2, 7, 8], 0] = True
    held[3:, 1] = True
    feats = np.zeros((9, FEATURE_DIM))
    feats[:, 0] = np.arange(9)
    sampler = PairSampler(feats, held.astype(float), seed=5)
    assert sampler.neg_combos == [(0, 1)]
    batch = sampler.draw(15_000)
    ia, ib = batch.xa[:, 0].astype(int), batch.xb[:, 0].astype(int)
    neg = ~batch.positive
    counts = np.zeros((9, 9), dtype=int)
    np.add.at(counts, (ia[neg], ib[neg]), 1)
    assert counts.sum() == 12_000
    want = np.zeros((9, 9), dtype=bool)
    want[:3, 3:7] = True
    assert not counts[~want].any()
    # 1,000 draws expected per pair; the standard deviation is about 29
    assert np.all(np.abs(counts[want] - 1000) < 120)


class _CountingGenerator:
    def __init__(self, rng):
        self.rng = rng
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


def test_draw_calls_the_generator_once_per_combination_at_most():
    feats, labels = random_training_set(np.random.default_rng(34), n_points=100)
    sampler = PairSampler(feats, labels, seed=34)
    sampler.rng = _CountingGenerator(sampler.rng)
    assert len(sampler.draw(64)) == 64
    assert 0 < sampler.rng.calls <= len(sampler.pos_combos) + len(sampler.neg_combos)


def test_loss_parts_compose():
    rng = np.random.default_rng(41)
    feats, labels = random_training_set(rng)
    batch = sample_pairs(feats, labels, 20, seed=41)
    net = DescriptorNet(seed=41)
    for lc, lk in ((0.016, 1.0), (1.0, 0.0), (0.5, 2.0)):
        loss, _, parts = multitask_loss(net, batch, lc, lk)
        assert abs(loss - (lc * parts["class"] + lk * parts["contrastive"])) < 1e-12


def test_contrastive_term_recomputes_from_descriptors():
    rng = np.random.default_rng(42)
    feats, labels = random_training_set(rng)
    batch = sample_pairs(feats, labels, 30, seed=42)
    net = DescriptorNet(seed=42)
    _, _, parts = multitask_loss(net, batch, 0.016, 1.0)
    p = len(batch)
    unit_a = predict_probs(net, batch.xa)[1]
    unit_b = predict_probs(net, batch.xb)[1]
    dist = np.linalg.norm(unit_a - unit_b, axis=1)
    want = 0.0
    for j in range(p):
        if batch.positive[j]:
            want += dist[j] ** 2
        else:
            want += max(DescriptorConfig.margin - dist[j], 0.0) ** 2
    assert abs(parts["contrastive"] - want) < 1e-9


def test_gradients_match_finite_differences():
    h = 1e-6
    for i in range(2):
        rng = np.random.default_rng(700 + i)
        feats, labels = random_training_set(rng)
        batch = sample_pairs(feats, labels, 25, seed=700 + i)
        net = DescriptorNet(seed=700 + i)
        for lc, lk in LAMBDA_PRESETS.values():
            _, grads, _ = multitask_loss(net, batch, lc, lk)
            for name in sorted(net.params):
                g = grads[name].ravel()
                flat = net.params[name].ravel()
                for j in np.argsort(-np.abs(g))[:4]:
                    old = flat[j]
                    flat[j] = old + h
                    up, _, _ = multitask_loss(net, batch, lc, lk)
                    flat[j] = old - h
                    dn, _, _ = multitask_loss(net, batch, lc, lk)
                    flat[j] = old
                    fd = (up - dn) / (2 * h)
                    assert abs(g[j] - fd) / max(abs(fd), 1e-6) < 1e-4


def test_empty_batch_rejected():
    net = DescriptorNet(seed=0)
    feats = np.zeros((5, FEATURE_DIM))
    labels = np.zeros((5, 5))
    labels[:, 0] = 1.0
    sampler = PairSampler(feats, labels, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        batch = sampler.draw(0)
    with pytest.raises(MissingDataError):
        multitask_loss(net, batch, 1.0, 0.0)


def test_net_round_trip(tmp_path):
    net = DescriptorNet(seed=9)
    path = tmp_path / "net.json"
    net.save(str(path))
    back = DescriptorNet.load(str(path))
    assert back.layer_sizes == net.layer_sizes
    for name in net.params:
        assert np.array_equal(back.params[name], net.params[name])
    x = np.random.default_rng(9).normal(size=(6, FEATURE_DIM))
    assert np.array_equal(back.forward(x)["probs"], net.forward(x)["probs"])


def test_forward_unit_descriptors_and_prob_range():
    net = DescriptorNet(seed=2)
    x = np.random.default_rng(2).normal(size=(10, FEATURE_DIM))
    probs, unit = predict_probs(net, x)
    assert probs.shape == (10, 5)
    assert np.all((probs > 0) & (probs < 1))
    assert np.allclose(np.linalg.norm(unit, axis=1), 1.0, atol=1e-12)


def test_training_runs_and_is_deterministic():
    rng = np.random.default_rng(55)
    feats, labels = random_training_set(rng, n_points=80)
    net_a, trace_a = train_descriptor(feats, labels, epochs=3, seed=55)
    net_b, trace_b = train_descriptor(feats, labels, epochs=3, seed=55)
    assert len(trace_a) == 3
    assert all(np.isfinite(t["total"]) for t in trace_a)
    assert trace_a == trace_b
    for name in net_a.params:
        assert np.array_equal(net_a.params[name], net_b.params[name])


def test_training_reduces_classification_loss():
    rng = np.random.default_rng(56)
    feats, labels = random_training_set(rng, n_points=120, multi=0)
    _, trace = train_descriptor(feats, labels, variant="classification",
                                epochs=12, seed=56)
    assert trace[-1]["class"] < trace[0]["class"]


def test_training_input_validation():
    with pytest.raises(MissingDataError):
        train_descriptor(np.zeros((0, FEATURE_DIM)), np.zeros((0, 5)))
    feats = np.zeros((10, FEATURE_DIM))
    labels = np.zeros((10, 5))
    labels[:, 0] = 1.0
    with pytest.raises(ValueError):
        train_descriptor(feats, labels, variant="nonsense")
