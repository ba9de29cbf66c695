import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from matseg.crf import (
    FAMILIES,
    CrfGraph,
    CrfWeights,
    Marginals,
    assignment_scores,
    brute_force_marginals,
    build_crf,
    crf_gradient,
    exact_log_likelihood,
    free_energy,
    load_face_predictions,
    load_sample_probs,
    mean_field_infer,
    predict_labels,
    save_face_predictions,
    save_sample_probs,
    train_crf,
)
from matseg.config import CrfConfig
from matseg.errors import (
    InterchangeError,
    InvalidGraphError,
    MissingDataError,
    MissingUnariesError,
    OracleSizeError,
)
from matseg.materials import MATERIALS, multihot
from matseg.mesh import attach_labels, compute_adjacency


def one_material_graph(unary, adj=(), weights=None, truth=None):
    unary = np.asarray(unary, dtype=np.float64)
    n = unary.shape[-1]
    edges = {"adj": np.array([(a, b) for a, b, _ in adj]).reshape(-1, 2)}
    coeffs = {"adj": np.array([k for _, _, k in adj])}
    return CrfGraph(
        materials=("wood",), n_faces=n, unary=unary.reshape(1, n),
        edges=edges, coeffs=coeffs,
        weights=weights or CrfWeights.ones(("wood",)), truth=truth,
    )


def hand_enumeration(graph):
    """Independent exact marginals for a single-material graph."""
    assert graph.n_materials == 1
    n = graph.n_faces
    u = graph.unary[0]
    w = graph.weights
    probs = []
    for config in itertools.product((0, 1), repeat=n):
        logp = sum(math.log(u[f]) if config[f] else math.log(1 - u[f]) for f in range(n))
        for fam, scale, table in zip(FAMILIES, w.scales[:, 0], w.tables[:, 0]):
            for (a, b), k in zip(graph.edges[fam], graph.coeffs[fam]):
                la, lb = config[a], config[b]
                coeff = k if la == lb else 1.0 - k
                logp -= scale * float(table[la, lb]) * coeff
        probs.append((config, math.exp(logp)))
    z = sum(p for _, p in probs)
    q = np.zeros(n)
    for config, p in probs:
        for f in range(n):
            if config[f]:
                q[f] += p / z
    return q, z


def test_factor_values_match_formula():
    # one adj edge, omega = 0.5 stored squared, all weights one
    g = one_material_graph([0.5, 0.5], adj=[(0, 1, 0.25)])
    scores = {
        (a, b): float(assignment_scores(g, np.array([[a, b]], dtype=float))[0])
        for a, b in itertools.product((0, 1), repeat=2)
    }
    unary_part = 2 * math.log(0.5)
    # disagreeing labels: exp(-(1 - 0.25)) ~ 0.4724
    assert abs(math.exp(scores[(0, 1)] - unary_part) - 0.4724) < 1e-4
    assert abs(scores[(0, 1)] - unary_part - (-0.75)) < 1e-12
    assert abs(scores[(1, 0)] - unary_part - (-0.75)) < 1e-12
    # agreeing labels pay the squared coefficient itself
    assert abs(scores[(1, 1)] - unary_part - (-0.25)) < 1e-12

    zero = one_material_graph([0.5, 0.5], adj=[(0, 1, 0.0)])
    s = float(assignment_scores(zero, np.array([[1.0, 1.0]]))[0])
    assert math.exp(s - unary_part) == 1.0


def test_build_crf_nearest_sample_unaries(cube):
    positions = np.array([[0.5, 1.0, 0.5], [0.5, 0.0, 0.5]])  # top and bottom
    probs = np.array([
        [0.7, 0.1, 0.1, 0.05, 0.05],
        [0.1, 0.6, 0.1, 0.1, 0.1],
    ])
    g = build_crf(cube, positions, probs, adjacency=compute_adjacency(cube))
    top_faces = cube.component_faces("top")
    centroids = cube.face_centroids()
    near_top = np.linalg.norm(centroids - positions[0], axis=1) < np.linalg.norm(
        centroids - positions[1], axis=1
    )
    for f in range(cube.n_faces):
        want = probs[0] if near_top[f] else probs[1]
        assert np.allclose(g.unary[:, f], want)
    assert len(top_faces) == 2
    assert g.edges["adj"].shape == (18, 2)
    assert np.array_equal(g.coeffs["adj"], compute_adjacency(cube).value ** 2)


def test_build_crf_single_face_no_edges():
    import matseg.mesh as mesh_mod

    v = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    mesh = mesh_mod.build_mesh(v, np.array([[0, 1, 2]]), ("t",), np.zeros(1, dtype=np.int64))
    g = build_crf(mesh, np.array([[0.3, 0.3, 0.1]]), np.full((1, 5), 0.5))
    assert all(len(g.edges[f]) == 0 for f in FAMILIES)
    assert np.allclose(g.unary, 0.5)


def test_build_crf_requires_samples(cube):
    with pytest.raises(MissingUnariesError):
        build_crf(cube, np.zeros((0, 3)), np.zeros((0, 5)))


def test_coefficient_range_enforced():
    with pytest.raises(ValueError):
        one_material_graph([0.5, 0.5], adj=[(0, 1, 1.5)])
    with pytest.raises(ValueError):
        one_material_graph([0.5, 0.5], adj=[(0, 2, 0.5)])
    for k in (float("nan"), float("inf")):
        with pytest.raises(InvalidGraphError, match="finite"):
            one_material_graph([0.5, 0.5], adj=[(0, 1, k)])
    with pytest.raises(InvalidGraphError, match="length mismatch"):
        CrfGraph(materials=("wood",), n_faces=2, unary=np.full((1, 2), 0.5),
                 edges={"adj": np.array([[0, 1]])}, coeffs={"adj": np.zeros(2)},
                 weights=CrfWeights.ones(("wood",)))


def test_unary_rows_complement():
    g = one_material_graph([0.25, 0.75])
    assert np.all(np.abs((g.unary + (1.0 - g.unary)) - 1.0) < 1e-12)


def test_zero_pairwise_beliefs_equal_unaries():
    w = CrfWeights.ones(("wood",))
    w.scales[:] = 0.0
    g = one_material_graph([0.9, 0.2, 0.65], adj=[(0, 1, 0.3), (1, 2, 0.7)], weights=w)
    marg = mean_field_infer(g)
    assert np.max(np.abs(marg.q - g.unary)) < 1e-12
    bf = brute_force_marginals(g)
    assert np.max(np.abs(bf.q - g.unary)) < 1e-10


def test_strong_equality_edge_lifts_both():
    # favors agreement: zero squared coefficient, heavy scale
    w = CrfWeights.ones(("wood",))
    w.scales[0, 0] = 5.0
    g = one_material_graph([0.9, 0.4], adj=[(0, 1, 0.0)], weights=w)
    marg = mean_field_infer(g)
    assert marg.converged
    assert np.all(marg.q > 0.5)
    bf = brute_force_marginals(g)
    assert np.all(bf.q > 0.5)


def test_brute_force_matches_hand_enumeration():
    w = CrfWeights.ones(("wood",))
    w.scales[0, 0] = 1.3
    w.tables[0, 0] = np.array([[0.2, 0.9], [0.9, 1.7]])
    g = one_material_graph([0.8, 0.35, 0.6], adj=[(0, 1, 0.4), (1, 2, 0.15)], weights=w)
    q_ref, z_ref = hand_enumeration(g)
    bf = brute_force_marginals(g)
    assert np.max(np.abs(bf.q[0] - q_ref)) < 1e-12
    exact = exact_log_likelihood(g, np.array([[1.0, 0.0, 1.0]]))
    score = float(assignment_scores(g, np.array([[1.0, 0.0, 1.0]]))[0])
    assert abs(exact - (score - math.log(z_ref))) < 1e-12


def test_single_variable_marginal():
    g = one_material_graph([0.7])
    bf = brute_force_marginals(g)
    assert abs(bf.q[0, 0] - 0.7) < 1e-12


def test_oracle_size_limit():
    g = CrfGraph(
        materials=MATERIALS, n_faces=5,
        unary=np.full((5, 5), 0.5), edges={}, coeffs={},
        weights=CrfWeights.ones(MATERIALS),
    )
    assert g.n_variables == 25
    with pytest.raises(OracleSizeError):
        brute_force_marginals(g)
    with pytest.raises(OracleSizeError):
        exact_log_likelihood(g, np.zeros((5, 5)))


def test_free_energy_non_increasing():
    rng = np.random.default_rng(17)
    for _ in range(5):
        g = one_material_graph(
            rng.uniform(0.1, 0.9, size=4),
            adj=[(0, 1, rng.uniform()), (1, 2, rng.uniform()), (2, 3, rng.uniform())],
        )
        marg = mean_field_infer(g)
        fe = np.array(marg.free_energy)
        assert np.all(fe[1:] - fe[:-1] <= 1e-9)
        # the trace endpoint is reproducible from the final beliefs
        assert abs(free_energy(g, marg.q) - fe[-1]) < 1e-9


def test_fixed_point_stability():
    g = one_material_graph([0.8, 0.3, 0.55], adj=[(0, 1, 0.2), (1, 2, 0.6)])
    marg = mean_field_infer(g, tol=1e-12)
    assert marg.converged
    again = mean_field_infer(g, max_iter=marg.sweeps + 1, tol=1e-12)
    assert np.max(np.abs(again.q - marg.q)) < 1e-10


def test_nonconvergence_flagged_not_raised():
    w = CrfWeights.ones(("wood",))
    w.scales[0, 0] = 5.0
    g = one_material_graph([0.9, 0.1], adj=[(0, 1, 0.0)], weights=w)
    marg = mean_field_infer(g, max_iter=1)
    assert marg.converged is False


def test_stored_two_cycle_converges_and_descends():
    # weights learned from predicted unaries couple the metal beliefs so
    # strongly that a full step overshoots: the step halves, then grows back
    # to the full update, and the beliefs settle within a few sweeps
    doc = json.loads((Path(__file__).parents[1] / "bench" / "fault_case.json").read_text(encoding="utf-8"))
    g = CrfGraph(materials=tuple(doc["materials"]), n_faces=doc["n_faces"], unary=doc["unary"],
                 edges=doc["edges"], coeffs=doc["coeffs"], weights=CrfWeights.from_obj(doc["weights"]))
    marg = mean_field_infer(g)
    assert marg.converged and marg.sweeps <= 20
    assert marg.halvings > 0
    assert np.max(np.diff(marg.free_energy)) <= 1e-9


def mean_field_update(graph, q):
    """expit(logit(unary) - dE/dq): the fresh beliefs of one mean-field
    sweep from (M, F) beliefs ``q``, summed edge by edge."""
    field = np.log(graph.unary) - np.log(1.0 - graph.unary)
    for fam, scale, t in zip(FAMILIES, graph.weights.scales, graph.weights.tables):
        for (a, b), k in zip(graph.edges[fam], graph.coeffs[fam]):
            for x, y in ((a, b), (b, a)):
                q1, q0 = q[:, y], 1.0 - q[:, y]
                grad = k * (t[:, 1, 1] * q1 - t[:, 0, 0] * q0) + (1.0 - k) * t[:, 0, 1] * (q0 - q1)
                field[:, x] -= scale * grad
    return 1.0 / (1.0 + np.exp(-field))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_mat=st.integers(2, 5), n_faces=st.integers(2, 9))
def test_full_steps_under_strong_coupling_descend_to_fixed_points(seed, n_mat, n_faces):
    from conftest_crf import random_graph

    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_faces, MATERIALS[:n_mat])
    g.weights.scales[:] = rng.uniform(0.0, 5.0, size=g.weights.scales.shape)
    marg = mean_field_infer(g)
    # only graphs on which some full step overshoots, so that halving runs
    assume(marg.halvings > 0)
    assert np.max(np.diff(marg.free_energy)) <= 1e-9
    tol = CrfConfig.infer_tol
    halvings = 0
    for mi in range(n_mat):
        sub = material_subgraph(g, mi)
        alone = mean_field_infer(sub)
        assert np.array_equal(alone.q[0], marg.q[mi])
        halvings += alone.halvings
        if alone.converged:
            assert np.max(np.abs(mean_field_update(sub, alone.q) - alone.q)) <= 1e-6
            before = mean_field_infer(sub, max_iter=alone.sweeps - 1)
            assert np.max(np.abs(alone.q - before.q)) < 2.0 * tol
    assert marg.halvings == halvings


def test_material_decomposition_bitwise():
    rng = np.random.default_rng(23)
    mats = ("wood", "metal", "glass")
    n = 4
    unary = rng.uniform(0.1, 0.9, size=(3, n))
    edges = {"adj": np.array([[0, 1], [1, 2], [2, 3]])}
    coeffs = {"adj": rng.uniform(0.0, 1.0, size=3)}
    w = CrfWeights.ones(mats)
    w.scales[0] = [0.5, 1.5, 0.7]
    full = CrfGraph(materials=mats, n_faces=n, unary=unary.copy(),
                    edges={k: v.copy() for k, v in edges.items()},
                    coeffs={k: v.copy() for k, v in coeffs.items()}, weights=w)
    got = mean_field_infer(full)
    for mi, name in enumerate(mats):
        sub_w = CrfWeights.ones((name,))
        sub_w.scales[0, 0] = w.scales[0, mi]
        sub = CrfGraph(materials=(name,), n_faces=n, unary=unary[mi : mi + 1].copy(),
                       edges={k: v.copy() for k, v in edges.items()},
                       coeffs={k: v.copy() for k, v in coeffs.items()}, weights=sub_w)
        alone = mean_field_infer(sub)
        assert np.array_equal(got.q[mi], alone.q[0])


def material_subgraph(graph, mi):
    """Material ``mi`` of ``graph`` as a one-material graph."""
    w = graph.weights
    sub_w = CrfWeights((graph.materials[mi],), w.scales[:, mi], w.tables[:, mi])
    return CrfGraph(materials=(graph.materials[mi],), n_faces=graph.n_faces,
                    unary=graph.unary[mi : mi + 1].copy(),
                    edges={k: v.copy() for k, v in graph.edges.items()},
                    coeffs={k: v.copy() for k, v in graph.coeffs.items()}, weights=sub_w)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_mat=st.integers(2, 5), n_faces=st.integers(2, 9))
def test_batched_inference_matches_per_material_runs(seed, n_mat, n_faces):
    from conftest_crf import random_graph

    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_faces, MATERIALS[:n_mat])
    assert all(len(g.edges[f]) for f in FAMILIES)
    # per-material scales spread the sweep counts; tables stay symmetric
    for scales, tables in zip(g.weights.scales, g.weights.tables):
        scales[:] = rng.uniform(0.0, 3.0, size=n_mat)
        off = rng.uniform(0.0, 2.0, size=n_mat)
        tables[:, 0, 0] = rng.uniform(0.0, 2.0, size=n_mat)
        tables[:, 1, 1] = rng.uniform(0.0, 2.0, size=n_mat)
        tables[:, 0, 1] = tables[:, 1, 0] = off
    subs = [material_subgraph(g, mi) for mi in range(n_mat)]
    natural = [mean_field_infer(sub, max_iter=400).sweeps for sub in subs]
    # the cap below the slowest material's count stops it at max_iter
    for cap in (max(natural) - 1, 400):
        got = mean_field_infer(g, max_iter=cap)
        alone = [mean_field_infer(sub, max_iter=cap) for sub in subs]
        for mi, run in enumerate(alone):
            assert np.array_equal(got.q[mi], run.q[0])
        assert got.sweeps == max(run.sweeps for run in alone)
        assert got.converged == all(run.converged for run in alone)
        padded = [sum(run.free_energy[min(k, len(run.free_energy) - 1)] for run in alone)
                  for k in range(got.sweeps + 1)]
        assert len(got.free_energy) == len(padded)
        # each material's free energy has the bits it has on its own, so the
        # summed trace cannot rise where no material's trace does
        assert got.free_energy == padded
        assert abs(got.free_energy[-1] - free_energy(g, got.q)) < 1e-9
        if cap < max(natural):
            assert not got.converged and got.sweeps == cap


def test_cached_operator_follows_weight_updates():
    from conftest_crf import random_graph

    rng = np.random.default_rng(31)
    g = random_graph(rng, 7, ("wood", "metal", "glass"))
    before = mean_field_infer(g)

    def fresh_graph():
        return CrfGraph(materials=g.materials, n_faces=g.n_faces, unary=g.unary.copy(),
                        edges={k: v.copy() for k, v in g.edges.items()},
                        coeffs={k: v.copy() for k, v in g.coeffs.items()},
                        weights=g.weights.copy())

    # train_crf first swaps in a shared weight object, then steps it in place
    g.weights = CrfWeights.ones(g.materials)
    g.weights.scales[1] = [0.2, 2.5, 1.1]
    swapped = mean_field_infer(g)
    assert not np.array_equal(swapped.q, before.q)
    g.weights.scales[0] += 0.75
    g.weights.tables[2, :, 0, 1] += 0.5
    g.weights.tables[2, :, 1, 0] += 0.5
    for got in (mean_field_infer(g), mean_field_infer(g)):
        want = mean_field_infer(fresh_graph())
        assert np.array_equal(got.q, want.q)
        assert got.free_energy == want.free_energy
        assert not np.array_equal(got.q, swapped.q)


def test_monotone_smoothing_with_scale():
    unary = np.array([
        [0.7, 0.6, 0.45, 0.55, 0.4, 0.65],
        [0.3, 0.4, 0.55, 0.45, 0.6, 0.35],
    ])
    mats = ("wood", "metal")
    edges = {"adj": np.array([[i, i + 1] for i in range(5)])}
    coeffs = {"adj": np.zeros(5)}
    disagreements = []
    for scale in (0.0, 0.5, 1.0, 2.0, 4.0):
        w = CrfWeights.ones(mats)
        w.scales[:] = [[scale], [0.0], [0.0]]
        g = CrfGraph(materials=mats, n_faces=6, unary=unary.copy(),
                     edges={k: v.copy() for k, v in edges.items()},
                     coeffs={k: v.copy() for k, v in coeffs.items()}, weights=w)
        top1 = predict_labels(mean_field_infer(g)).top1
        disagreements.append(int(sum(top1[a] != top1[b] for a, b in edges["adj"])))
    assert all(x >= y for x, y in zip(disagreements, disagreements[1:]))
    assert disagreements[0] > disagreements[-1]


def test_symmetry_edge_forces_agreement():
    mats = ("wood", "metal")
    unary = np.array([[0.60, 0.48], [0.40, 0.52]])
    w = CrfWeights.ones(mats)
    w.scales[2] = 10.0
    g = CrfGraph(materials=mats, n_faces=2, unary=unary.copy(),
                 edges={"sym": np.array([[0, 1]])}, coeffs={"sym": np.zeros(1)},
                 weights=w)
    top1 = predict_labels(mean_field_infer(g)).top1
    assert top1[0] == top1[1]
    raw = np.argmax(unary, axis=0)
    assert raw[0] != raw[1]


def test_predict_labels_semantics():
    q = np.array([
        [0.9, 0.1, 0.2],
        [0.1, 0.1, 0.2],
        [0.05, 0.6, 0.2],
        [0.05, 0.55, 0.2],
        [0.02, 0.1, 0.2],
    ])
    out = predict_labels(Marginals(q=q, converged=True, sweeps=1))
    assert MATERIALS[out.top1[0]] == "wood"
    assert out.label_sets[0] == (0,)
    assert MATERIALS[out.top1[1]] == "metal"
    assert out.label_sets[1] == (2, 3)
    # flat beliefs: lowest material index wins, set falls back to it
    assert out.top1[2] == 0
    assert out.label_sets[2] == (0,)


def test_gradient_matches_exact_fd():
    from conftest_crf import coherent_graph, fd_check

    for i in range(3):
        rng = np.random.default_rng(500 + i)
        n = int(rng.integers(3, 6))
        g = coherent_graph(rng, n, ("wood", "metal"))
        for err, fd, name in fd_check(g):
            assert err < 1e-2, f"fixture {i} {name}: rel err {err:.2e} (|fd|={fd:.2e})"


def test_gradient_stationary_at_coherent_argmax():
    # confident unaries whose argmax matches the truth on every face: the
    # model's beliefs saturate to the data labels and the statistics cancel
    unary = np.array([[0.99, 0.99, 0.99]])
    truth = (unary > 0.5).astype(float)
    g = one_material_graph(unary[0], adj=[(0, 1, 0.0), (1, 2, 0.0)], truth=truth)
    gs, gt, _ = crf_gradient(g)
    assert np.max(np.abs(gs)) < 0.05
    assert np.max(np.abs(gt)) < 0.05
    w, _ = train_crf([g], lr=0.01, iters=5)
    assert np.max(np.abs(w.scales[0] - 1.0)) < 0.05


def test_training_requires_truth():
    g = one_material_graph([0.6, 0.4])
    with pytest.raises(MissingDataError):
        crf_gradient(g)
    with pytest.raises(MissingDataError):
        train_crf([g])
    with pytest.raises(MissingDataError):
        train_crf([])


def test_training_improves_exact_likelihood():
    from conftest_crf import coherent_graph

    for i in range(2):
        rng = np.random.default_rng(600 + i)
        g = coherent_graph(rng, 4, ("wood", "metal"))
        before = exact_log_likelihood(g, g.truth)
        w, trace = train_crf([g], lr=0.01, iters=10)
        after = exact_log_likelihood(g, g.truth)
        assert after > before
        assert np.all(w.scales >= 0.0)
        assert np.all(w.tables >= 0.0)
        assert np.allclose(w.tables[..., 0, 1], w.tables[..., 1, 0])


def test_weights_round_trip(tmp_path):
    w = CrfWeights.ones(MATERIALS)
    w.scales[FAMILIES.index("dist"), 2] = 1.75
    w.tables[FAMILIES.index("sym"), 1, 0, 1] = w.tables[FAMILIES.index("sym"), 1, 1, 0] = 0.25
    path = tmp_path / "weights.json"
    w.save(str(path))
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["scales"].keys() == doc["tables"].keys() == set(FAMILIES)
    assert doc["scales"]["dist"][2] == 1.75
    assert doc["tables"]["sym"][1][0][1] == 0.25
    reordered = dict(doc, scales=dict(reversed(doc["scales"].items())),
                     tables=dict(reversed(doc["tables"].items())))
    for back in (CrfWeights.load(str(path)), CrfWeights.from_obj(reordered)):
        assert back.materials == w.materials
        assert np.array_equal(back.scales, w.scales)
        assert np.array_equal(back.tables, w.tables)


def test_sample_probs_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    probs = rng.uniform(0.01, 0.99, size=(7, 5))
    path = tmp_path / "probs.jsonl"
    save_sample_probs(str(path), probs)
    back = load_sample_probs(str(path))
    assert np.array_equal(back, probs)
    empty = tmp_path / "none.jsonl"
    empty.write_text("")
    with pytest.raises(MissingUnariesError):
        load_sample_probs(str(empty))


@pytest.mark.parametrize("mutate, where", [
    (lambda lines: lines[:3] + [lines[3][:20]], "line 4"),  # cut mid-line
    (lambda lines: lines[:2] + lines[3:], "2 is missing"),
    (lambda lines: lines + [lines[0]], "line 7"),  # repeated index
    (lambda lines: [lines[0].replace("0.", "NaN, \"x\": 0.", 1)] + lines[1:], "line 1"),
    (lambda lines: lines[:1] + [lines[1].replace('"glass"', '"sand"')] + lines[2:], "line 2"),
    (lambda lines: lines[:5] + [lines[5].replace('"sample_index": 5', '"sample_index": 5.0')],
     "line 6"),
    (lambda lines: lines[:5] + ['{"sample_index": 5, "probs": {"wood": 1.5}}'], "line 6"),
    (lambda lines: lines[:5] + ['{"sample_index": 5, "probs": [0.5]}'], "line 6"),
    pytest.param(lambda lines: lines[:1] + [lines[1].replace('"fabric"', '"sand": 0.2, "fabric"')]
                 + lines[2:], "line 2: expected a value for each of", id="extra-material"),
    pytest.param(lambda lines: lines[:2] + [lines[2].replace('2', "9" * 5000, 1)] + lines[3:],
                 "line 3: invalid JSON", id="overlong-index"),
    pytest.param(lambda lines: lines[:5] + [lines[5].replace('"sample_index": 5', '"sample_index": -1')],
                 "line 6: sample_index -1 is out of range", id="negative-index"),
    pytest.param(lambda lines: lines[:3] + [lines[3].replace("0.2", "true", 1)] + lines[4:],
                 "line 4: True is not a number in [0, 1]", id="bool-probability"),
    pytest.param(lambda lines: lines[:3] + ["[0.2, 0.2, 0.2, 0.2, 0.2]"] + lines[4:],
                 "line 4: expected {sample_index: int, probs: dict}", id="not-an-object"),
])
def test_load_sample_probs_rejects_bad_files(tmp_path, mutate, where):
    path = tmp_path / "probs.jsonl"
    save_sample_probs(str(path), np.full((6, 5), 0.2))
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(mutate(lines)) + "\n", encoding="utf-8")
    with pytest.raises(InterchangeError) as exc:
        load_sample_probs(str(path))
    assert str(path) in str(exc.value)
    assert where in str(exc.value)


def test_build_crf_requires_one_row_per_sample(cube):
    positions = np.array([[0.5, 1.0, 0.5], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])
    with pytest.raises(MissingUnariesError):
        build_crf(cube, positions, np.full((2, 5), 0.2))
    with pytest.raises(MissingUnariesError):
        build_crf(cube, positions, np.full((3, 4), 0.2))


def test_face_predictions_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    q = rng.uniform(0.05, 0.95, size=(5, 6))
    marg = Marginals(q=q, converged=True, sweeps=4)
    pred = predict_labels(marg)
    path = tmp_path / "faces.jsonl"
    save_face_predictions(str(path), marg, pred)
    top1, sets, q_back = load_face_predictions(str(path))
    assert np.array_equal(top1, pred.top1)
    assert sets == pred.label_sets
    assert np.array_equal(q_back, q)


def test_face_label_matrix(cube):
    # per-face truth, through each face's component, as the CLI builds it
    mesh = attach_labels(cube, {"top": ["glass"], "rest": ["metal", "plastic"]})
    mat = multihot(mesh.labels)[mesh.face_component].T
    top = mesh.component_faces("top")
    rest = mesh.component_faces("rest")
    glass = MATERIALS.index("glass")
    assert np.all(mat[glass, top] == 1.0)
    assert np.all(mat[[MATERIALS.index("metal"), MATERIALS.index("plastic")]][:, rest] == 1.0)
    assert mat.sum() == len(top) + 2 * len(rest)
