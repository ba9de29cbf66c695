"""Quick tests of the benchmark's checks: each is fed a deliberately wrong
output and must reject it, and accept the matching right one.

    python3 -m pytest -q bench/test_checks.py
"""

import json
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import shapes  # noqa: E402

MATS = ["wood", "plastic", "metal", "glass", "fabric"]


def square_ring():
    """Four points symmetric under quarter turns about y and the x-mirror."""
    return np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -1.0],
                     [0.3, 1.0, 0.0]])


def test_maps_vertices_rejects_a_transform_that_is_not_a_symmetry():
    v = square_ring()[:4]
    quarter = shapes.builtin_rotations("table")[0]
    assert checks.maps_vertices(quarter, np.zeros(3), v, 1e-9) == []
    tilt = np.array([[math.cos(0.3), 0.0, -math.sin(0.3)], [0.0, 1.0, 0.0],
                     [math.sin(0.3), 0.0, math.cos(0.3)]])
    assert checks.maps_vertices(tilt, np.zeros(3), v, 0.05)
    assert checks.maps_vertices(np.eye(3), np.array([0.5, 0.0, 0.0]), v, 0.05)


def test_finds_builtin_rejects_a_missing_symmetry():
    v = square_ring()[:4]
    rots = shapes.builtin_rotations("table")
    found = [(r, np.zeros(3)) for r in rots]
    assert checks.finds_builtin(found, rots, v, 1e-9) == []
    assert len(checks.finds_builtin(found[:2], rots, v, 1e-9)) == 1
    assert checks.finds_builtin([], rots, v, 1e-9)


def test_vertex_tolerance_covers_jitter_on_both_ends():
    tol = checks.vertex_tolerance(0.005, 0.0, 1.0)
    assert tol == pytest.approx(2 * math.sqrt(3) * 0.005)


def test_labels_are_argmax_rejects_a_flipped_label():
    q = np.array([[0.9, 0.2, 0.5], [0.1, 0.8, 0.5]])
    assert checks.labels_are_argmax(np.array([0, 1, 0]), q) == []
    assert checks.labels_are_argmax(np.array([0, 0, 0]), q)
    assert checks.labels_are_argmax(np.array([0, 1, 1]), q)  # tie goes to the lower index
    assert checks.labels_are_argmax(np.array([0, 1, 2]), q)
    assert checks.labels_are_argmax(np.array([0, 1]), q)


def good_features():
    f = np.zeros((2, 64))
    for r in range(3):
        base = r * 17
        f[0, base] = 0.5
        f[0, base + 1 : base + 4] = [0.6, 0.3, 0.1]
        f[0, base + 9 : base + 13] = [0.25, 0.25, 0.5, 0.0]
    return f  # second row: empty neighbourhoods, all zero


def test_features_valid_rejects_broken_sums_and_nan():
    f = good_features()
    assert checks.features_valid(f) == []
    bad = f.copy()
    bad[0, 2] = 0.5
    assert checks.features_valid(bad)
    bad = f.copy()
    bad[0, 17 + 10] = 0.0
    assert checks.features_valid(bad)
    bad = f.copy()
    bad[1, 60] = np.nan
    assert checks.features_valid(bad)


def test_free_energy_descends_rejects_a_rising_trace():
    assert checks.free_energy_descends([5.0, 4.0, 4.0, 3.5]) == []
    assert checks.free_energy_descends([5.0, 4.0, 4.0 + 1e-12]) == []
    assert checks.free_energy_descends([5.0, 3.0, 3.4, 3.0, 3.4])


def test_top1_and_smoothing_bounds():
    truth = np.array([[1, 1, 0, 0], [0, 0, 1, 1.0]])
    assert checks.top1([0, 0, 1, 1], truth) == 1.0
    assert checks.top1([0, 1, 1, 0], truth) == 0.5
    assert checks.smoothing_bounds([0.04, 0.0], 95, 100) == []
    assert checks.smoothing_bounds([0.01, 0.01], 95, 100)  # mean gain too small
    assert checks.smoothing_bounds([0.10, -0.01], 95, 100)  # one shape got worse
    assert checks.smoothing_bounds([0.03, 0.03], 89, 100)  # legs disagree


def test_samples_on_faces_rejects_a_moved_sample():
    v = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
    faces = np.array([[0, 1, 2]])
    rec = {"face": 0, "barycentric": [0.2, 0.3, 0.5], "position": [0.3, 0.5, 0.0]}
    assert checks.samples_on_faces([rec], v, faces, 1.0) == []
    assert checks.samples_on_faces([dict(rec, position=[0.3, 0.5, 1e-6])], v, faces, 1.0)
    assert checks.samples_on_faces([dict(rec, barycentric=[0.6, 0.3, 0.5])], v, faces, 1.0)
    assert checks.samples_on_faces([dict(rec, face=1)], v, faces, 1.0)


def test_distances_in_range():
    assert checks.distances_in_range([{"d": 0.0}, {"d": 0.1}], 0.1) == []
    assert checks.distances_in_range([{"d": 0.11}], 0.1)
    assert checks.distances_in_range([{"d": -0.01}], 0.1)


def prediction(face, top, q):
    return {"face": face, "top1": top, "label_set": [top],
            "marginals": dict(zip(MATS, q))}


def test_predictions_valid_rejects_missing_lines_and_wrong_labels():
    recs = [prediction(0, "wood", [0.9, 0, 0, 0, 0]), prediction(1, "metal", [0, 0, 0.7, 0, 0])]
    assert checks.predictions_valid(recs, 2, MATS) == []
    assert checks.predictions_valid(recs[:1], 2, MATS)
    assert checks.predictions_valid([recs[0], prediction(1, "wood", [0, 0, 0.7, 0, 0])], 2, MATS)
    assert checks.predictions_valid([recs[0], dict(recs[1], top1="steel")], 2, MATS)


def test_probs_valid():
    rec = {"sample_index": 0, "probs": dict(zip(MATS, [0.1, 0.2, 0.3, 0.4, 0.5]))}
    assert checks.probs_valid([rec], 1, MATS) == []
    assert checks.probs_valid([rec], 2, MATS)
    assert checks.probs_valid([dict(rec, probs=dict(rec["probs"], wood=1.5))], 1, MATS)


def test_report_matches_rejects_a_misreported_report():
    truth = np.zeros((5, 4))
    truth[0, :2] = 1
    truth[2, 2:] = 1
    labels = [0, 1, 2, 2]
    report = {"top1_accuracy": {"mean": 0.75, "per_class": {
        "wood": 0.5, "plastic": None, "metal": 1.0, "glass": None, "fabric": None}}}
    assert checks.report_matches(report, labels, truth, MATS) == []
    wrong = json.loads(json.dumps(report))
    wrong["top1_accuracy"]["mean"] = 0.8
    assert checks.report_matches(wrong, labels, truth, MATS)
    wrong = json.loads(json.dumps(report))
    wrong["top1_accuracy"]["per_class"]["glass"] = 0.0
    assert checks.report_matches(wrong, labels, truth, MATS)
    assert checks.report_matches({}, labels, truth, MATS)


def test_subdivision_keeps_components_and_surface():
    import benchenv  # noqa: F401
    from matseg.synth import SynthSpec, generate

    mesh = generate(SynthSpec(category="chair", leg_shape="box"))
    fine = shapes.subdivide(mesh)
    assert fine.n_faces == 4 * mesh.n_faces
    assert np.array_equal(fine.face_component, np.repeat(mesh.face_component, 4))
    assert fine.total_area() == pytest.approx(mesh.total_area())
    # shared edges get one midpoint: V' = V + E for a closed surface
    edges = {tuple(sorted(e)) for f in mesh.faces for e in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0]))}
    assert len(fine.vertices) == len(mesh.vertices) + len(edges)
