"""Correctness checks on what matseg returns, each against the benchmark's own
computation or a property the method must have.

Every check returns a list of problems; an empty list means it passed. The
checks use numpy only, never matseg, so a fault in the package cannot hide
itself.
"""

from __future__ import annotations

import math

import numpy as np

FE_RISE_TOL = 1e-9  # criterion 2: no free-energy step may rise by more
# extract_features layout: 17 values per radius at 3 radii, then globals
PER_RADIUS = 17
RADII = 3
EIG_FRACTIONS = slice(1, 4)
ANGLE_HIST = slice(9, 13)


def vertex_tolerance(jitter: float, rmsd_gate: float, radius: float) -> float:
    """Largest distance a true symmetry may leave between matched vertices.

    Jitter moves every vertex by at most sqrt(3) * jitter * radius, so a
    vertex and its partner disagree by up to twice that under the exact
    transform. A fitted transform may be off by up to the detector's own
    acceptance gate (rmsd_gate * radius) on top.
    """
    return (2.0 * math.sqrt(3.0) * jitter + rmsd_gate) * radius


def _nearest(points: np.ndarray, cloud: np.ndarray) -> np.ndarray:
    d2 = ((points[:, None, :] - cloud[None, :, :]) ** 2).sum(axis=2)
    return np.sqrt(d2.min(axis=1))


def maps_vertices(rotation, translation, vertices, tol: float) -> list[str]:
    """The transform takes every vertex to within ``tol`` of some vertex."""
    moved = np.asarray(vertices) @ np.asarray(rotation).T + np.asarray(translation)
    worst = float(_nearest(moved, vertices).max())
    if not worst <= tol:
        return [f"transform moves a vertex {worst:.4g} from every vertex (tol {tol:.4g})"]
    return []


def finds_builtin(found, builtin, vertices, tol: float) -> list[str]:
    """Each built-in rotation matrix (about the origin) has a detected
    transform that agrees with it on every vertex within ``tol``.

    ``found`` is a list of (rotation, translation) pairs.
    """
    vertices = np.asarray(vertices)
    problems = []
    for k, rot in enumerate(builtin):
        want = vertices @ np.asarray(rot).T
        gaps = [
            float(np.linalg.norm(vertices @ np.asarray(r).T + t - want, axis=1).max())
            for r, t in found
        ]
        if not gaps or min(gaps) > tol:
            best = min(gaps) if gaps else float("inf")
            problems.append(f"built-in symmetry {k} not found (closest {best:.4g}, tol {tol:.4g})")
    return problems


def labels_are_argmax(top1, q) -> list[str]:
    """One valid material per face, equal to the argmax of its marginals."""
    q = np.asarray(q)
    top1 = np.asarray(top1)
    m, f = q.shape
    if top1.shape != (f,):
        return [f"{top1.shape} labels for {f} faces"]
    if top1.min() < 0 or top1.max() >= m:
        return ["label outside the material range"]
    # ties go to the lowest index, as predict_labels documents
    want = np.array([max(range(m), key=lambda k: (q[k, i], -k)) for i in range(f)])
    bad = int(np.sum(top1 != want))
    return [f"{bad} faces not labelled with their argmax"] if bad else []


def features_valid(feats) -> list[str]:
    """Finite features; per radius, eigenvalue fractions and the normal-angle
    histogram each sum to 1 where the neighbourhood is not empty."""
    feats = np.asarray(feats)
    if not np.all(np.isfinite(feats)):
        return ["non-finite feature"]
    problems = []
    for r in range(RADII):
        block = feats[:, r * PER_RADIUS : (r + 1) * PER_RADIUS]
        full = block[:, 0] > 0
        for name, part in (("eigenvalue fractions", EIG_FRACTIONS), ("angle histogram", ANGLE_HIST)):
            sums = block[full, part].sum(axis=1)
            if sums.size and np.max(np.abs(sums - 1.0)) > 1e-9:
                problems.append(f"radius {r}: {name} do not sum to 1")
    return problems


def free_energy_rise(trace) -> float:
    t = np.asarray(trace, dtype=np.float64)
    return float(np.max(np.diff(t))) if len(t) > 1 else 0.0


def free_energy_descends(trace) -> list[str]:
    rise = free_energy_rise(trace)
    if rise > FE_RISE_TOL:
        return [f"free energy rises by {rise:.3g} in one sweep"]
    return []


def top1(labels, truth) -> float:
    """Share of faces whose label is one of their true materials."""
    truth = np.asarray(truth)
    hits = sum(1 for f, m in enumerate(labels) if truth[int(m), f] > 0)
    return hits / truth.shape[1]


def smoothing_bounds(gains, agree: int, pairs: int) -> list[str]:
    """Criterion 7: mean gain >= +2 pp, worst >= -0.5 pp, legs agree >= 90%."""
    problems = []
    mean = 100.0 * float(np.mean(gains))
    worst = 100.0 * float(np.min(gains))
    share = 100.0 * agree / pairs if pairs else 0.0
    if mean < 2.0:
        problems.append(f"mean top-1 gain {mean:+.2f} pp < +2")
    if worst < -0.5:
        problems.append(f"worst top-1 gain {worst:+.2f} pp < -0.5")
    if share < 90.0:
        problems.append(f"symmetric-leg agreement {share:.1f}% < 90%")
    return problems


def samples_on_faces(records, vertices, faces, radius: float) -> list[str]:
    """Each sample is the barycentric combination of its face's vertices."""
    vertices = np.asarray(vertices)
    faces = np.asarray(faces)
    for i, rec in enumerate(records):
        face = rec["face"]
        bary = np.asarray(rec["barycentric"], dtype=np.float64)
        if not 0 <= face < len(faces):
            return [f"sample {i}: face {face} out of range"]
        if bary.min() < -1e-12 or abs(bary.sum() - 1.0) > 1e-9:
            return [f"sample {i}: barycentric {bary.tolist()} not convex"]
        want = bary @ vertices[faces[face]]
        if np.linalg.norm(np.asarray(rec["position"]) - want) > 1e-9 * radius:
            return [f"sample {i}: position off its face"]
    return []


def distances_in_range(records, high: float) -> list[str]:
    bad = [r for r in records if not 0.0 <= r["d"] <= high]
    return [f"{len(bad)} geodesic distances outside [0, {high}]"] if bad else []


def predictions_valid(records, n_faces: int, materials) -> list[str]:
    """One line per face, in order, with a known top-1 inside its label set."""
    if [r["face"] for r in records] != list(range(n_faces)):
        return [f"{len(records)} prediction lines for {n_faces} faces"]
    for r in records:
        if r["top1"] not in materials or r["top1"] not in r["label_set"]:
            return [f"face {r['face']}: bad top-1 {r['top1']!r}"]
        if set(r["marginals"]) != set(materials):
            return [f"face {r['face']}: marginals name other materials"]
        top = max(materials, key=lambda m: (r["marginals"][m], -materials.index(m)))
        if top != r["top1"]:
            return [f"face {r['face']}: top-1 is not the argmax of its marginals"]
    return []


def per_class_top1(labels, truth) -> tuple[list[float | None], float]:
    """Per-material top-1 over the faces of that material, and their mean."""
    truth = np.asarray(truth)
    per = []
    for m in range(truth.shape[0]):
        members = [f for f in range(truth.shape[1]) if truth[m, f] > 0]
        if not members:
            per.append(None)
            continue
        per.append(sum(1 for f in members if truth[int(labels[f]), f] > 0) / len(members))
    seen = [p for p in per if p is not None]
    return per, (sum(seen) / len(seen) if seen else float("nan"))


def report_matches(report: dict, labels, truth, materials) -> list[str]:
    """report.json top-1 equals the benchmark's own recomputation."""
    per, mean = per_class_top1(labels, truth)
    got = report.get("top1_accuracy") or {}
    problems = []
    if got.get("mean") is None or abs(got["mean"] - mean) > 1e-12:
        problems.append(f"report top-1 {got.get('mean')} != recomputed {mean}")
    for m, want in zip(materials, per):
        have = (got.get("per_class") or {}).get(m)
        if (have is None) != (want is None) or (want is not None and abs(have - want) > 1e-12):
            problems.append(f"report top-1 for {m} {have} != recomputed {want}")
    return problems


def probs_valid(records, n_samples: int, materials) -> list[str]:
    """One line per kept sample, each a finite probability per material."""
    if [r["sample_index"] for r in records] != list(range(n_samples)):
        return [f"{len(records)} probability lines for {n_samples} samples"]
    for r in records:
        p = [r["probs"].get(m) for m in materials]
        if any(x is None or not 0.0 <= x <= 1.0 for x in p):
            return [f"sample {r['sample_index']}: probabilities {p} outside [0, 1]"]
    return []
