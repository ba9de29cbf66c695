"""Rigid symmetry detection between mesh components.

Hypotheses come from one anchor component, after Mitra, Guibas & Pauly
("Partial and Approximate Symmetry Detection for 3D Geometry", SIGGRAPH
2006): every symmetry of the shape maps the anchor onto a congruent
component, so ICP fits of the anchor onto each congruent partner propose
the shape's symmetries, as far as the starts reach them. The starts are one
stack of transforms, a ring of turns about the upright axis, each alone and
composed with the x or the y mirror (the z mirror is the x mirror turned
half way, a start the ring already has); ICP runs them all on one shared
source cloud. A component that stays on itself under a turn finer than the
ring (a round top) would propose its own turns, so another serves as anchor
where one can. The fits are clustered, each cluster's transform sharpened
point-to-plane (Rusinkiewicz & Levoy, 3DIM 2001), and verified on the whole
shape: a transform survives when it takes every component onto a congruent
one. All those (component, target) pairs share its motion, so one joint
point-to-plane refit over their stacked correspondences polishes it, and
the refit's own last correspondences gate each pair. A pair that maps a
component onto itself is also probed by a refit of that pair alone, which
catches a component that only the other pairs hold in place. The survivors
are clustered again, so each distinct symmetry appears once. Its face pairs
feed the CRF's symmetry factors. Detected symmetries are saved as one JSON
document, face pairs as JSON lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree
from scipy.spatial.transform import Rotation

from .config import SymmetryConfig
from .jsonl import check_record, finite_array, int64, read_json, read_jsonl, unit, write_json, write_jsonl
from .mesh import UPRIGHT_AXIS, LabeledMesh, first_per_pair, y_rotation
from .sampling import draw_surface

_N_INIT_ROTATIONS = 8
# dense target clouds keep the nearest-neighbor rmsd floor of a correct
# match well below the acceptance gate
_TARGET_DENSITY = 32
# the joint refit and the self-pair probe move every _REFIT_STRIDE-th point
# of a component's dense cloud; the gate's rmsd reads that strided cloud
_REFIT_STRIDE = 4
_TRIVIAL_ANGLE = math.radians(2.0)
_CLUSTER_ANGLE = math.radians(5.0)
_CLUSTER_AXIS = math.radians(5.0)
_CLUSTER_TRANSLATION = 0.05
# a point-to-plane refit stops once a step moves the bounding sphere by
# less, four orders below the default gate (0.02 R): a shorter step only
# re-confirms a fit already reached
_REFIT_STEP = 1e-6
_REFIT_MAX_ITER = 12


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """Orthogonal 3x3 matrix (det +1 or -1) plus translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.array(self.rotation, dtype=np.float64).reshape(3, 3)
        t = np.array(self.translation, dtype=np.float64).reshape(3)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        if not np.allclose(r @ r.T, np.eye(3), atol=1e-8):
            raise ValueError("matrix is not orthogonal")
        if abs(abs(float(np.linalg.det(r))) - 1.0) > 1e-8:
            raise ValueError("matrix determinant is not +1 or -1")

    @property
    def det(self) -> float:
        return float(np.sign(np.linalg.det(self.rotation)))

    @property
    def kind(self) -> str:
        return "rotational" if self.det > 0 else "reflective"

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.rotation.T + self.translation

    def angle_axis(self) -> tuple[float, np.ndarray]:
        """Rotation angle in [0, pi] and unit axis; see angle_axes."""
        angles, axes = angle_axes(self.rotation[None])
        return float(angles[0]), axes[0]


def angle_axes(rotations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotation angles in [0, pi] and unit axes of a stack of orthogonal
    3x3 matrices.

    Reflections are read through the proper rotation -R, so a pure mirror
    reports angle pi about the mirror normal. The axis sign is arbitrary at
    angle pi; below 1e-9 the angle reads 0 about the upright axis.
    """
    proper = rotations * np.sign(np.linalg.det(rotations))[:, None, None]
    rotvec = Rotation.from_matrix(proper).as_rotvec()
    angles = np.linalg.norm(rotvec, axis=1)
    still = angles < 1e-9
    axes = np.where(still[:, None], UPRIGHT_AXIS, rotvec / np.where(still, 1.0, angles)[:, None])
    return np.where(still, 0.0, angles), axes


@dataclass(frozen=True)
class DetectedSymmetry:
    """A clustered transform mapping one component onto another.

    Entries sharing transform_id describe the same global symmetry acting
    on different component pairs; their ``transform`` is the cluster
    representative, refined and averaged over the member fits.
    """

    transform: RigidTransform
    source_component: int
    target_component: int
    rmsd: float
    transform_id: int


@dataclass(frozen=True)
class SymmetryPair:
    """Face pair related by a detected transform.

    ``s`` is |T(center(face_a)) - center(face_b)| over the bounding radius,
    clamped to [0, 1]; face_a lives in the transform's source component.
    """

    face_a: int
    face_b: int
    s: float
    transform_id: int


def _kabsch_stack(centered, centroid, dst, det_sign):
    """Best rigid fits of one source cloud onto a stack of matched points.

    ``centered`` (n, 3) is the source about its ``centroid`` (3,), ``dst``
    (s, n, 3) the targets each fit matched it to; each fitted matrix has the
    determinant sign in ``det_sign`` (s,). One batched SVD serves the stack.
    """
    dc = dst.mean(axis=1)
    h = np.einsum("nk,snj->skj", centered, dst - dc[:, None, :])
    u, _, vt = np.linalg.svd(h)
    v, ut = vt.transpose(0, 2, 1), u.transpose(0, 2, 1)
    d = np.ones((len(h), 3))
    d[:, 2] = det_sign * np.where(np.linalg.det(v @ ut) >= 0.0, 1.0, -1.0)
    r = (v * d[:, None, :]) @ ut
    return r, dc - r @ centroid


def _icp_stack(source, target, tree, rotations, translations, max_iter, tol, abandon):
    """ICP of one source cloud onto one target cloud from a stack of starts.

    Start k moves the shared ``source`` (n points) from ``rotations[k]``
    (a turn, or a turn composed with a mirror) and ``translations[k]``, and
    keeps that matrix's determinant sign. Each sweep makes one KD query over
    the active starts and one stacked Kabsch fit. A start stops once its
    rmsd changes by less than ``tol``; one still above ``abandon`` after 6
    sweeps cannot reach the acceptance gate and is cut short. Returns the
    rotations, translations and rmsds of every start.
    """
    n = len(source)
    r = np.array(rotations, dtype=np.float64)
    t = np.array(translations, dtype=np.float64)
    det_sign = np.sign(np.linalg.det(r))
    centroid = source.mean(axis=0)
    centered = source - centroid

    def sweep(active):
        moved = np.einsum("nk,sjk->snj", source, r[active]) + t[active, None, :]
        dist, idx = tree.query(moved.reshape(-1, 3))
        dist = dist.reshape(len(active), n)
        return np.sqrt(np.mean(dist * dist, axis=1)), idx.reshape(len(active), n)

    active = np.arange(len(r))
    rmsd, idx = sweep(active)
    for it in range(max_iter):
        if it >= 6:
            keep = rmsd[active] <= abandon
            active, idx = active[keep], idx[keep]
        if len(active) == 0:
            break
        r[active], t[active] = _kabsch_stack(centered, centroid, target[idx], det_sign[active])
        new, idx = sweep(active)
        done = np.abs(rmsd[active] - new) < tol
        rmsd[active] = new
        active, idx = active[~done], idx[~done]
    return r, t, rmsd


def _refit(pairs, targets, normals, trees, init, max_iter, center, radius):
    """Point-to-plane ICP (Rusinkiewicz & Levoy 2001) of one motion from
    ``init``, over the stacked correspondences of every pair.

    ``pairs`` lists (moving cloud, target index j); each cloud is matched
    to its nearest points of ``targets[j]`` through ``trees[j]``. Each step
    linearizes the rotation, solves for the small motion (w, v) that best
    slides all moved clouds at once onto the tangent planes of their
    nearest targets, and applies it as ``R <- dR R, t <- dR t + v`` with dR
    the exact rotation by w, so a reflection stays a reflection. The
    minimum-norm solve leaves a free direction (a round top spun about its
    axis) at the start's value. Stops when a step moves the bounding sphere
    by less than _REFIT_STEP * radius, or after ``max_iter`` steps.

    Returns the transform and, per pair, the nearest distances of the last
    query. After a stop on a short step they were measured before that
    step; after ``max_iter`` steps one more query measures them at the
    returned transform. Either way, each lies within _REFIT_STEP * radius of
    the distance under the returned transform, for clouds inside the
    bounding sphere.
    """
    source = np.vstack([cloud for cloud, _ in pairs])
    ends = np.cumsum([len(cloud) for cloud, _ in pairs])[:-1]
    r = init.rotation
    t = init.translation
    for it in range(max_iter + 1):
        moved = source @ r.T + t
        parts = np.split(moved, ends)
        dist, idx = zip(*(trees[j].query(part) for (_, j), part in zip(pairs, parts)))
        if it == max_iter:
            break
        nearest = np.vstack([targets[j][i] for (_, j), i in zip(pairs, idx)])
        n = np.vstack([normals[j][i] for (_, j), i in zip(pairs, idx)])
        # columns scaled to the radius so the solve does not depend on units
        a = np.hstack([np.cross(moved, n) / radius, n])
        b = np.einsum("ij,ij->i", nearest - moved, n)
        x = np.linalg.lstsq(a, b, rcond=None)[0]
        w, v = x[:3] / radius, x[3:]
        dr = Rotation.from_rotvec(w).as_matrix()
        r = dr @ r
        t = dr @ t + v
        # bound on how far any point of the bounding sphere moved this step
        shift = np.linalg.norm(dr @ center + v - center) + radius * np.linalg.norm(w)
        if shift < _REFIT_STEP * radius:
            break
    return RigidTransform(r, t), list(dist)


def _signature(cloud: np.ndarray) -> np.ndarray:
    """Sorted square roots of the PCA eigenvalues: the cloud's extent along
    its principal axes, unchanged by any rotation or reflection."""
    cov = np.cov(cloud, rowvar=False)
    return np.sqrt(np.clip(np.linalg.eigvalsh(cov), 0.0, None))


def _congruent(a: np.ndarray, b: np.ndarray, accept: float) -> bool:
    """Signatures close enough, axis by axis, that the clouds may fit under
    the rmsd gate; a gross mismatch cannot, so it skips the fits."""
    return bool(np.all(np.abs(a - b) <= np.maximum(0.25 * np.maximum(a, b), 2.0 * accept)))


def _spins(source: np.ndarray, target: np.ndarray, tree: cKDTree, accept: float) -> bool:
    """Whether a turn of half the start ring's step about the upright axis
    through the component's centroid keeps its cloud on itself under the
    gate."""
    c = target.mean(axis=0)
    turned = (source - c) @ y_rotation(np.pi / _N_INIT_ROTATIONS).T + c
    dist = tree.query(turned)[0]
    return bool(np.sqrt(np.mean(dist * dist)) < accept)


def _trivial(rotations: np.ndarray) -> np.ndarray:
    """Per matrix of a stack, whether it turns by less than _TRIVIAL_ANGLE:
    the identity and pure translations carry no label-coupling information."""
    return (np.linalg.det(rotations) > 0.0) & (angle_axes(rotations)[0] < _TRIVIAL_ANGLE)


def detect_symmetries(
    mesh: LabeledMesh,
    samples_per_component: int = SymmetryConfig.samples_per_component,
    rmsd_threshold: float = SymmetryConfig.rmsd_threshold,
    seed: int = 0,
    max_iter: int = SymmetryConfig.max_iter,
) -> list[DetectedSymmetry]:
    """Find rotational and reflective symmetries between components.

    The anchor is the component with the fewest congruent partners
    (principal extents that agree); ties go to the largest area, then the
    lowest index. A component that a turn of half the ring's step about
    the upright axis keeps on itself under the gate is passed over when
    another will serve. The anchor's cloud is fitted onto every partner
    from 24 starts, run as one stack on that one cloud: 8 turns about the
    upright axis, each alone and composed with the x and the y mirror,
    each with the translation that carries the anchor's centroid onto the
    partner's. Fits with rmsd below ``rmsd_threshold * bounding_radius``
    are kept, and for a partner other than the anchor each is followed by
    its inverse, which stands for the pair (partner, anchor). Near-identity
    and translation-only fits are discarded, and the survivors clustered by
    angle/axis/translation proximity into distinct transforms.

    Each cluster's averaged transform is sharpened by a point-to-plane
    refit of one member pair's sparse source cloud, then checked on the
    whole shape: it survives only if it maps every component onto a
    congruent component under the gate, so congruences private to one pair
    (a cylindrical leg spun onto itself) do not count as shape symmetries.
    The check names each component's target. One point-to-plane refit of
    the transform runs over the stacked correspondences of all its
    (component, target) pairs, each moving every fourth point of the
    component's dense cloud; each pair is then gated on the rmsd of that
    strided cloud, from the refit's last query. A pair that maps a component
    onto itself is also refitted alone from the joint fit, and dropped if
    that probe moves the component's sparse cloud by the gate (rms). The
    surviving pairs are clustered again.
    """
    rng = np.random.default_rng(seed)
    radius = mesh.bounding_radius
    center = mesh.bounding_center
    n_comp = mesh.n_components

    sources = []
    targets = []
    normals = []
    for c in range(n_comp):
        faces = mesh.component_faces(c)
        sources.append(draw_surface(mesh, faces, samples_per_component, rng)[2])
        picked, _, cloud = draw_surface(mesh, faces, _TARGET_DENSITY * samples_per_component, rng)
        targets.append(cloud)
        normals.append(mesh.face_normals[picked])

    accept = rmsd_threshold * radius
    refit_iter = min(max_iter, _REFIT_MAX_ITER)

    trees = [cKDTree(t) if len(t) >= 3 else None for t in targets]
    signatures = [None if tree is None else _signature(t) for t, tree in zip(targets, trees)]
    valid = [c for c in range(n_comp) if len(sources[c]) >= 3 and trees[c] is not None]
    if not valid:
        return []
    # the targets each component's cloud may fit under the gate; a gross
    # mismatch of principal extents cannot, so it is never fitted or checked
    partners = [
        [j for j in range(n_comp) if trees[j] is not None
         and _congruent(signatures[c], signatures[j], accept)] if c in valid else []
        for c in range(n_comp)
    ]
    # a component that a turn of half the ring's step keeps on itself (a
    # round top) is passed over as anchor when another will serve: its fits
    # land on its own turn nearest each start, which the shape may not share
    areas = [float(mesh.face_areas[mesh.component_faces(c)].sum()) for c in range(n_comp)]
    order = sorted(valid, key=lambda c: (len(partners[c]), -areas[c], c))
    anchor = next((c for c in order if not _spins(sources[c], targets[c], trees[c], accept)), order[0])

    # the starts, mirrors outer and turns inner (a turn composed with a
    # mirror is the turn with the mirrored columns negated), each translated
    # to carry the anchor's centroid onto the partner's
    turns = np.stack([y_rotation(2.0 * np.pi * k / _N_INIT_ROTATIONS) for k in range(_N_INIT_ROTATIONS)])
    mirrors = np.array([[1.0, 1.0, 1.0], [-1.0, 1.0, 1.0], [1.0, -1.0, 1.0]])
    starts = (mirrors[:, None, None, :] * turns).reshape(-1, 3, 3)
    cloud = sources[anchor]
    turned_centroid = starts @ cloud.mean(axis=0)
    # candidate rows: rotation, translation, source, target, rmsd
    columns = []
    for j in partners[anchor]:
        # coarse tolerance: candidates only need to land in the right
        # cluster, the sharpening and refinement passes repolish
        r, t, rmsd = _icp_stack(
            cloud, targets[j], trees[j], starts, targets[j].mean(axis=0) - turned_centroid,
            max_iter, 0.02 * accept, abandon=3.0 * accept,
        )
        keep = (rmsd < accept) & ~_trivial(r)
        r, t, rmsd = r[keep], t[keep], rmsd[keep]
        # a fit onto a partner other than the anchor is followed by its
        # inverse, which maps the partner onto the anchor
        rt = r.transpose(0, 2, 1)
        sides = 1 if j == anchor else 2
        columns.append((
            np.stack([r, rt], axis=1)[:, :sides].reshape(-1, 3, 3),
            np.stack([t, -np.einsum("skj,sj->sk", rt, t)], axis=1)[:, :sides].reshape(-1, 3),
            np.tile([anchor, j][:sides], len(r)), np.tile([j, anchor][:sides], len(r)),
            np.repeat(rmsd, sides),
        ))
    candidates = (np.concatenate(column) for column in zip(*columns))

    # sharpen each cluster's averaged representative point-to-plane on one
    # member pair's sparse cloud, an anchor-source pair where there is one
    best: dict[int, DetectedSymmetry] = {}
    for sym in sorted(_cluster(*candidates, radius), key=lambda s: (s.source_component != anchor, s.rmsd)):
        best.setdefault(sym.transform_id, sym)
    fits = [
        _refit([(sources[s.source_component], s.target_component)], targets, normals, trees,
               s.transform, refit_iter, center, radius)[0]
        for s in best.values()
    ]
    reps = [fit for fit in fits if not _trivial(fit.rotation[None])[0]]

    # a pair of congruent components (two identical legs, a cylinder onto
    # itself at any offset) fits under the gate without being a symmetry
    # of the shape; keep only transforms that map every component onto
    # matching geometry. Their (component, target) pairs share one motion:
    # one refit over all of them polishes it, and the distances of its last
    # query gate each pair on its strided cloud: they lie within
    # _REFIT_STEP * radius of those under the returned fit. Re-clustering
    # merges duplicates, and fits that slid toward the identity meet the
    # trivial gate again. The other pairs can hold a component where alone
    # it would slide (a 16-gon top under the shape's 120-degree turn), so a
    # pair onto itself is dropped when its own refit from the joint fit
    # moves its sparse cloud by the gate (rms), to a congruence of that
    # component alone (the top's own 112.5 degrees).
    refit = []  # rows as the candidates': rotation, translation, source, target, rmsd
    for rep, pairs in zip(reps, _arrangement(reps, sources, trees, partners, accept)):
        if not pairs:
            continue
        moving = [(targets[c][::_REFIT_STRIDE], j) for c, j in pairs]
        fit, dists = _refit(moving, targets, normals, trees, rep, refit_iter, center, radius)
        if _trivial(fit.rotation[None])[0]:
            continue
        for (c, j), pair, dist in zip(pairs, moving, dists):
            rmsd = float(np.sqrt(np.mean(dist * dist)))
            if rmsd >= accept:
                continue
            if c == j:
                probe = _refit([pair], targets, normals, trees, fit, refit_iter, center, radius)[0]
                slide = probe.apply(sources[c]) - fit.apply(sources[c])
                if np.sqrt(np.mean(np.einsum("ij,ij->i", slide, slide))) >= accept:
                    continue
            refit.append((fit.rotation, fit.translation, c, j, rmsd))
    return _cluster(*(np.array(column) for column in zip(*refit)), radius) if refit else []


def _arrangement(
    reps: list[RigidTransform],
    sources: list[np.ndarray],
    trees: list[cKDTree | None],
    partners: list[list[int]],
    accept: float,
) -> list[list[tuple[int, int]] | None]:
    """Per transform, the (component, target) pair of every component it
    takes onto a partner with rmsd under ``accept``, or None when some
    component with a cloud finds no such partner.

    All transforms are checked at once, per (component, target): one KD
    query moves the component's cloud by every transform still pending.
    A component's target is the first partner that passes. The query is
    bounded at sqrt(n) * accept for n points: one point farther away than
    that already puts the rmsd over the gate, so an unbounded (inf)
    distance fails the transform exactly as the full distance would.
    """
    if not reps:
        return []
    rot = np.stack([t.rotation for t in reps])
    trans = np.stack([t.translation for t in reps])
    alive = np.ones(len(reps), dtype=bool)
    match = np.full((len(reps), len(sources)), -1)
    for c, cloud in enumerate(sources):
        if len(cloud) < 3:
            continue
        pending = np.flatnonzero(alive)
        moved = np.einsum("nk,sjk->snj", cloud, rot[pending]) + trans[pending, None, :]
        bound = math.sqrt(len(cloud)) * accept
        for j in partners[c]:
            if len(pending) == 0:
                break
            dist = trees[j].query(moved.reshape(-1, 3), distance_upper_bound=bound)[0]
            dist = dist.reshape(len(pending), len(cloud))
            hit = np.sqrt(np.mean(dist * dist, axis=1)) < accept
            match[pending[hit], c] = j
            pending, moved = pending[~hit], moved[~hit]
        alive[pending] = False
    return [
        [(c, int(j)) for c, j in enumerate(row) if j >= 0] if ok else None
        for row, ok in zip(match, alive)
    ]


def _cluster(rotations, translations, sources, targets, rmsds, radius: float) -> list[DetectedSymmetry]:
    """Group candidate transforms into distinct symmetries.

    Candidate k maps component ``sources[k]`` onto ``targets[k]`` by
    ``rotations[k]`` and ``translations[k]``, with fit error ``rmsds[k]``.
    Returns one entry per (cluster, source, target), in that order, holding
    the cluster's chordal mean and the pair's best rmsd.
    """
    if len(rmsds) == 0:
        return []
    # two candidates are linked when they have the same kind, close angles,
    # axes (either sign at a half turn; any axis near the identity) and
    # translations; tested for all pairs at once, as candidate counts reach
    # the hundreds. Clusters are the connected groups of links, numbered in
    # the order of their first candidate.
    dets = np.sign(np.linalg.det(rotations))
    angs, axes = angle_axes(rotations)

    same = dets[:, None] == dets[None, :]
    same &= np.abs(angs[:, None] - angs[None, :]) <= _CLUSTER_ANGLE
    diff = translations[:, None, :] - translations[None, :, :]
    same &= np.einsum("abk,abk->ab", diff, diff) <= (_CLUSTER_TRANSLATION * radius) ** 2
    dots = np.clip(axes @ axes.T, -1.0, 1.0)
    near_pi = angs > np.pi - _CLUSTER_ANGLE
    dots = np.where(near_pi[:, None] & near_pi[None, :], np.abs(dots), dots)
    axis_ok = np.arccos(dots) <= _CLUSTER_AXIS
    small = angs <= _TRIVIAL_ANGLE
    axis_ok |= small[:, None] & small[None, :]
    same &= axis_ok
    n_clusters, ids = connected_components(csr_matrix(same), directed=False)

    # each cluster's chordal mean, which cancels the per-fit sampling noise:
    # the SVD projection of its averaged rotation matrix, constrained to its
    # members' determinant sign (clusters never mix kinds)
    sums = np.zeros((n_clusters, 12))
    np.add.at(sums, ids, np.hstack([rotations.reshape(-1, 9), translations]))
    means = sums / np.bincount(ids)[:, None]
    u, _, vt = np.linalg.svd(means[:, :9].reshape(-1, 3, 3))
    first = np.unique(ids, return_index=True)[1]
    u[np.linalg.det(u @ vt) * dets[first] < 0.0, :, -1] *= -1.0
    representative = [RigidTransform(r, t) for r, t in zip(u @ vt, means[:, 9:])]

    # the best rmsd per (cluster, source, target): the stable sort keeps
    # candidate order among equal rmsds, and the first row of a key wins
    order = np.lexsort((rmsds, targets, sources, ids))
    key = np.stack([ids, sources, targets], axis=1)[order]
    head = order[np.r_[True, (key[1:] != key[:-1]).any(axis=1)]]
    return [
        DetectedSymmetry(representative[cid], i, j, rmsd, cid)
        for cid, i, j, rmsd in zip(ids[head].tolist(), sources[head].tolist(),
                                   targets[head].tolist(), rmsds[head].tolist())
    ]


def symmetry_pairs(
    mesh: LabeledMesh,
    symmetries: list[DetectedSymmetry],
    residual_cutoff: float = SymmetryConfig.residual_cutoff,
) -> list[SymmetryPair]:
    """Map each source face through its transform to the nearest target face.

    Residual s is normalized by the bounding radius and clamped to [0, 1];
    pairs above ``residual_cutoff`` are dropped, as are self pairs. A face
    pair reachable through several transforms keeps its smallest residual,
    from the first of them on ties.
    """
    centroids = mesh.face_centroids()
    radius = mesh.bounding_radius
    found = []
    for sym in symmetries:
        sf = mesh.component_faces(sym.source_component)
        tf = mesh.component_faces(sym.target_component)
        if len(sf) == 0 or len(tf) == 0:
            continue
        dist, idx = cKDTree(centroids[tf]).query(sym.transform.apply(centroids[sf]))
        found.append((sf, tf[idx], np.minimum(dist / radius, 1.0), np.full(len(sf), sym.transform_id)))
    if not found:
        return []
    fa, fb, s, tid = (np.concatenate(column) for column in zip(*found))
    keep = (s <= residual_cutoff) & (fa != fb)
    fa, fb, s, tid = fa[keep], fb[keep], s[keep], tid[keep]
    pick = first_per_pair(fa, fb, s)  # rows in symmetry order, so the first wins ties
    return [
        SymmetryPair(*pair)
        for pair in zip(fa[pick].tolist(), fb[pick].tolist(), s[pick].tolist(), tid[pick].tolist())
    ]


def _transform(matrix: list) -> RigidTransform:
    """A RigidTransform from its 3x4 matrix [R | t], row by row."""
    m = finite_array(matrix, (12,)).reshape(3, 4)
    return RigidTransform(m[:, :3], m[:, 3])


def _symmetry(rec) -> DetectedSymmetry:
    fields = {"matrix": (list, _transform), "source_component": int,
              "target_component": int, "rmsd": float, "transform_id": int}
    rec = check_record(rec, fields)
    return DetectedSymmetry(*(rec[key] for key in fields))  # in field order


def save_symmetries(path: str, symmetries: list[DetectedSymmetry]) -> None:
    """Write {symmetries: [...]}, each entry's transform as a 3x4 matrix
    [R | t] flattened row by row, with its kind."""
    write_json(path, {"symmetries": [
        {
            "matrix": np.hstack([s.transform.rotation, s.transform.translation[:, None]]).ravel().tolist(),
            "kind": s.transform.kind,
            "source_component": s.source_component,
            "target_component": s.target_component,
            "rmsd": s.rmsd,
            "transform_id": s.transform_id,
        }
        for s in symmetries
    ]})


def load_symmetries(path: str) -> list[DetectedSymmetry]:
    """Read symmetries written by save_symmetries; a matrix that is not 12
    finite numbers forming an orthogonal [R | t] raises InterchangeError."""
    doc = read_json(path, {"symmetries": (list, lambda recs: [_symmetry(r) for r in recs])})
    return doc["symmetries"]


def save_symmetry_pairs(path: str, pairs: list[SymmetryPair]) -> None:
    write_jsonl(path, (
        {"face_a": p.face_a, "face_b": p.face_b, "s": p.s, "transform_id": p.transform_id}
        for p in pairs
    ))


def load_symmetry_pairs(path: str) -> list[SymmetryPair]:
    fields = {"face_a": (int, int64), "face_b": (int, int64), "s": unit, "transform_id": (int, int64)}
    return [
        SymmetryPair(rec["face_a"], rec["face_b"], rec["s"], rec["transform_id"])
        for rec in read_jsonl(path, fields)
    ]
