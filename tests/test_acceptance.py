"""Acceptance checks, one per advertised guarantee.

Each test prints a single PASS/FAIL scorecard line with the measured
figure next to its tolerance, then asserts. Fixtures are frozen: seeds,
sizes, and tolerances here are the contract, not tunables.
"""

import dataclasses
import json
import math
import time

import numpy as np

from conftest_crf import coherent_graph, fd_check, random_graph
from test_evaluation import ref_confusion, ref_precision_at_k, ref_top1

from matseg import cli
from matseg.crf import (
    brute_force_marginals,
    build_crf,
    exact_log_likelihood,
    mean_field_infer,
    train_crf,
)
from matseg.descriptor import (
    LAMBDA_PRESETS,
    DescriptorNet,
    multitask_loss,
    sample_pairs,
)
from matseg.evaluation import (
    balance_database,
    confusion_matrix,
    precision_at_k,
    top1_accuracy,
)
from matseg.geodesics import geodesic_pairs
from matseg.materials import multihot
from matseg.mesh import compute_adjacency
from matseg.symmetry import detect_symmetries, symmetry_pairs
from matseg.synth import (
    SynthSpec,
    benchmark_suite,
    corrupt_unaries,
    generate,
    mirrored_chair_fixture,
)

MATS2 = ("wood", "metal")


def record(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


def test_01_mean_field_exact_without_coupling(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(50):
        rng = np.random.default_rng(200 + i)
        n = int(rng.integers(2, 11))
        g = random_graph(rng, n, MATS2, weight_scale=0.0)
        gap = np.max(np.abs(mean_field_infer(g).q - brute_force_marginals(g).q))
        worst = max(worst, float(gap))
    dt = time.perf_counter() - t0
    record(capsys, 1, worst < 1e-10 and dt < 5.0,
           f"belief gap without coupling {worst:.2e} < 1e-10 on 50 graphs ({dt:.1f}s < 5s)")


def test_02_weak_coupling_accuracy_and_descent(capsys):
    t0 = time.perf_counter()
    gaps = []
    fe_rise = 0.0
    for i in range(50):
        rng = np.random.default_rng(300 + i)
        n = int(rng.integers(2, 9))
        g = random_graph(rng, n, MATS2, weight_scale=float(rng.uniform(0.0, 0.5)))
        mf = mean_field_infer(g)
        bf = brute_force_marginals(g)
        gaps.append(float(np.mean(np.abs(mf.q - bf.q))))
        fe = np.asarray(mf.free_energy)
        if len(fe) > 1:
            fe_rise = max(fe_rise, float(np.max(fe[1:] - fe[:-1])))
    mean_gap = float(np.mean(gaps))
    dt = time.perf_counter() - t0
    record(capsys, 2, mean_gap < 0.05 and fe_rise <= 1e-9 and dt < 30.0,
           f"weak-coupling mean L1 {mean_gap:.4f} < 0.05; "
           f"max free-energy increase {fe_rise:.2e} <= 1e-9 ({dt:.1f}s < 30s)")


def test_03_likelihood_gradient_and_ascent(capsys):
    t0 = time.perf_counter()
    worst = (0.0, "")
    steps_ok = True
    for i in range(10):
        rng = np.random.default_rng(500 + i)
        n = int(rng.integers(3, 6))
        g = coherent_graph(rng, n, MATS2)
        for err, _, name in fd_check(g):
            if err > worst[0]:
                worst = (err, f"fixture {i} {name}")

        rng = np.random.default_rng(500 + i)
        n = int(rng.integers(3, 6))
        g = coherent_graph(rng, n, MATS2)
        lls = [exact_log_likelihood(g, g.truth)]
        w = None
        for _ in range(10):
            w, _ = train_crf([g], init=w, lr=0.01, iters=1)
            lls.append(exact_log_likelihood(g, g.truth))
        steps_ok &= bool(np.all(np.diff(lls) > 0))
    dt = time.perf_counter() - t0
    record(capsys, 3, worst[0] < 1e-2 and steps_ok,
           f"gradient rel err {worst[0]:.2e} < 1e-2 (worst at {worst[1]}); "
           f"10 ascent steps strictly increase exact likelihood on 10 graphs: "
           f"{'yes' if steps_ok else 'NO'} ({dt:.1f}s)")


def descriptor_fixture(rng, n_points=60, n_mats=5):
    feats = rng.normal(size=(n_points, 64))
    labels = np.zeros((n_points, n_mats))
    labels[np.arange(n_points), rng.integers(0, n_mats, size=n_points)] = 1.0
    for i in rng.choice(n_points, size=6, replace=False):
        labels[i, int(rng.integers(0, n_mats))] = 1.0
    return feats, labels


def test_04_descriptor_gradients(capsys):
    t0 = time.perf_counter()
    h = 1e-6
    worst = (0.0, "")
    for i in range(20):
        rng = np.random.default_rng(700 + i)
        feats, labels = descriptor_fixture(rng)
        batch = sample_pairs(feats, labels, 25, seed=700 + i)
        net = DescriptorNet(seed=700 + i)
        for preset, (lc, lk) in LAMBDA_PRESETS.items():
            _, grads, _ = multitask_loss(net, batch, lc, lk)
            for name in sorted(net.params):
                g = grads[name].ravel()
                flat = net.params[name].ravel()
                for j in np.argsort(-np.abs(g))[:8]:
                    old = flat[j]
                    flat[j] = old + h
                    up, _, _ = multitask_loss(net, batch, lc, lk)
                    flat[j] = old - h
                    dn, _, _ = multitask_loss(net, batch, lc, lk)
                    flat[j] = old
                    fd = (up - dn) / (2 * h)
                    err = abs(g[j] - fd) / max(abs(fd), 1e-6)
                    if err > worst[0]:
                        worst = (err, f"batch {i} {preset} {name}[{j}]")
    dt = time.perf_counter() - t0
    record(capsys, 4, worst[0] < 1e-4,
           f"loss gradient rel err {worst[0]:.2e} < 1e-4 "
           f"(worst at {worst[1]}; 20 batches, both mixes, {dt:.1f}s)")


def test_05_pair_mix(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(800)
    feats, labels = descriptor_fixture(rng, n_points=120)
    batch = sample_pairs(feats, labels, 10_000, seed=800)
    pos_frac = float(np.mean(batch.positive))
    neg = [c for c, p in zip(batch.combos, batch.positive) if not p]
    counts = {}
    for c in neg:
        counts[c] = counts.get(c, 0) + 1
    freqs = [n / len(neg) for n in counts.values()]
    shared = sum(
        1 for j in np.flatnonzero(~batch.positive)
        if np.any((batch.ya[j] > 0) & (batch.yb[j] > 0))
    )
    ok = (abs(pos_frac - 0.20) <= 0.01
          and len(counts) == 10
          and all(abs(f - 0.10) <= 0.01 for f in freqs)
          and shared == 0)
    dt = time.perf_counter() - t0
    record(capsys, 5, ok,
           f"positive fraction {pos_frac:.4f} in 0.20+-0.01; negative combo "
           f"freqs [{min(freqs):.4f}, {max(freqs):.4f}] in 0.10+-0.01; "
           f"shared-label negatives {shared} == 0 (n=10000, {dt:.1f}s)")


def clusters_of(symmetries):
    groups = {}
    for s in symmetries:
        groups.setdefault(s.transform_id, []).append(s)
    return [group[0].transform for group in groups.values()]


def test_06_symmetry_detection(capsys):
    t0 = time.perf_counter()
    table = generate(SynthSpec(category="table", legs=4, leg_shape="prism",
                               top_shape="pinwheel",
                               materials={"leg": ["metal"], "top": ["wood"]},
                               jitter=0.0, seed=3))
    transforms = clusters_of(detect_symmetries(table))
    n_rot = sum(1 for t in transforms if t.det > 0)
    ang_err = 0.0
    for t in transforms:
        ang, _ = t.angle_axis()
        ang_err = max(ang_err, min(abs(ang - k * math.pi / 2) for k in (1, 2, 3)))
    exact_ok = len(transforms) == 3 and n_rot == 3 and ang_err < 1e-3

    chair = mirrored_chair_fixture()
    ctransforms = clusters_of(detect_symmetries(chair))
    mirror_ok = len(ctransforms) == 1 and ctransforms[0].det < 0

    jittered = generate(SynthSpec(category="table", legs=4, leg_shape="prism",
                                  top_shape="pinwheel",
                                  materials={"leg": ["metal"], "top": ["wood"]},
                                  jitter=0.01, seed=7))
    syms = detect_symmetries(jittered, seed=1)
    pairs = symmetry_pairs(jittered, syms)
    smax = max(p.s for p in pairs) if pairs else float("inf")
    jitter_ok = len(syms) > 0 and len(pairs) > 0 and smax <= 0.05

    dt = time.perf_counter() - t0
    record(capsys, 6, exact_ok and mirror_ok and jitter_ok and dt < 20.0,
           f"exact table: {len(transforms)} clusters ({n_rot} rotations), "
           f"angle err {ang_err:.2e} < 1e-3 rad; mirrored chair: "
           f"{len(ctransforms)} cluster det {ctransforms[0].det:+.0f}; "
           f"jittered table: {len(pairs)} pairs, max residual {smax:.4f} <= 0.05 "
           f"({dt:.1f}s < 20s)")


def top1_from_q(q, truth):
    am = q.argmax(axis=0)
    return float((truth[am, np.arange(q.shape[1])] > 0).mean())


def test_07_smoothing_benchmark(capsys):
    t0 = time.perf_counter()
    graphs = []
    leg_pairs = []
    for idx, spec in enumerate(benchmark_suite()):
        mesh = generate(spec)
        adjacency = compute_adjacency(mesh)
        dist = geodesic_pairs(mesh, adjacency)
        spairs = symmetry_pairs(mesh, detect_symmetries(mesh))
        face_sets = [mesh.face_label_set(f) for f in range(mesh.n_faces)]
        truth = multihot(face_sets).T
        probs = corrupt_unaries(face_sets, 0.25, seed=1000 + idx)
        graphs.append(build_crf(mesh, mesh.face_centroids(), probs, adjacency,
                                dist, spairs, truth=truth))
        legs = {c for c, n in enumerate(mesh.component_names) if n.startswith("leg")}
        fc = mesh.face_component
        leg_pairs.append([(p.face_a, p.face_b) for p in spairs
                          if fc[p.face_a] in legs and fc[p.face_b] in legs])

    weights, _ = train_crf(graphs)
    deltas = []
    cons_num = cons_den = 0
    for g, lp in zip(graphs, leg_pairs):
        marg = mean_field_infer(dataclasses.replace(g, weights=weights))
        deltas.append(top1_from_q(marg.q, g.truth) - top1_from_q(g.unary, g.truth))
        am = marg.q.argmax(axis=0)
        cons_num += sum(int(am[a] == am[b]) for a, b in lp)
        cons_den += len(lp)
    mean_d = 100 * float(np.mean(deltas))
    min_d = 100 * float(min(deltas))
    cons = 100 * cons_num / cons_den
    dt = time.perf_counter() - t0
    record(capsys, 7,
           mean_d >= 2.0 and min_d >= -0.5 and cons >= 90.0 and dt < 300.0,
           f"30-shape benchmark at 25% unary noise: mean top-1 gain {mean_d:+.2f}pp >= +2; "
           f"worst {min_d:+.2f}pp >= -0.5; symmetric-leg agreement {cons:.1f}% >= 90% "
           f"({dt:.0f}s < 300s)")


def test_08_metric_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    ok = True
    for i in range(10):
        rng = np.random.default_rng(900 + i)
        qd = rng.normal(size=(50, 8))
        dd = rng.normal(size=(50, 8))
        ql = np.zeros((50, 5))
        dl = np.zeros((50, 5))
        for lab in (ql, dl):
            lab[np.arange(50), rng.integers(0, 5, size=50)] = 1.0
            for j in rng.choice(50, size=8, replace=False):
                lab[j, int(rng.integers(0, 5))] = 1.0
        preds = rng.integers(0, 5, size=50)
        k = int(rng.integers(1, 6))

        def same_table(got, want):
            g, gm = got
            w, wm = want
            return (np.array_equal(np.isnan(g), np.isnan(w))
                    and np.array_equal(g[~np.isnan(g)], w[~np.isnan(w)])
                    and gm == wm)

        keep = balance_database(dl, seed=i)
        ok &= same_table(precision_at_k(qd, ql, dd, dl, k, seed=i, balance=True),
                         ref_precision_at_k(qd, ql, dd[keep], dl[keep], k))
        ok &= same_table(precision_at_k(qd, ql, dd, dl, k, balance=False),
                         ref_precision_at_k(qd, ql, dd, dl, k))
        ok &= same_table(top1_accuracy(preds, ql), ref_top1(preds, ql))
        ok &= np.array_equal(confusion_matrix(preds, ql), ref_confusion(preds, ql))
    dt = time.perf_counter() - t0
    record(capsys, 8, ok,
           f"metrics match straight-line references bitwise on 10 fixtures "
           f"(balanced and full retrieval, top-1, confusion) ({dt:.1f}s)")


def run_pipeline(root):
    shapes = root / "shapes"
    shape = shapes / "t3"
    shape.mkdir(parents=True)
    spec = root / "table.json"
    spec.write_text(json.dumps({
        "category": "table", "legs": 4, "leg_shape": "prism",
        "top_shape": "pinwheel",
        "materials": {"leg": ["metal"], "top": ["wood"]},
        "jitter": 0.0, "seed": 3,
    }), encoding="utf-8")
    stages = [
        ["synth", "--spec", str(spec), "--out", str(shape)],
        ["sample", "--shape", str(shape), "--seed", "0"],
        ["symmetry", "--shape", str(shape), "--seed", "0"],
        ["geodesic", "--shape", str(shape)],
        ["train-desc", "--data", str(shapes), "--set", "descriptor.epochs=5",
         "--seed", "0"],
        ["predict", "--shape", str(shape), "--net", str(shapes / "net.json")],
        ["train-crf", "--data", str(shapes), "--seed", "0"],
        ["infer", "--shape", str(shape), "--weights", str(shapes / "crf_weights.json")],
        ["eval", "--pred", str(shape / "predictions.jsonl"),
         "--truth", str(shape / "face_truth.jsonl"),
         "--out", str(shape / "report.json"), "--csv", str(shape / "report")],
    ]
    for argv in stages:
        assert cli.main(argv) == 0, argv
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


def test_09_pipeline_reproducibility(capsys, tmp_path):
    t0 = time.perf_counter()
    a = run_pipeline(tmp_path / "run1")
    b = run_pipeline(tmp_path / "run2")
    same_names = set(a) == set(b)
    diff = [name for name in a if same_names and a[name] != b[name]]
    dt = time.perf_counter() - t0
    record(capsys, 9, same_names and not diff and dt < 600.0,
           f"two end-to-end runs produced {len(a)} files each, byte-identical: "
           f"{'yes' if same_names and not diff else 'NO ' + str(diff[:3])} "
           f"({dt:.0f}s < 600s)")
