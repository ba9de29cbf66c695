"""Rigid symmetry detection between mesh components.

Hypotheses come from one anchor component, after Mitra, Guibas & Pauly
("Partial and Approximate Symmetry Detection for 3D Geometry", SIGGRAPH
2006): every symmetry of the shape maps the anchor onto a congruent
component, so fits of the anchor onto each congruent partner propose the
shape's symmetries, as far as the starts reach them. Congruence is one
component-by-component matrix, from each component's principal extents. One
fitter serves every fit: point-to-plane ICP (Chen & Medioni 1992;
Rusinkiewicz & Levoy, 3DIM 2001), stepping a stack of motions at once by
one stacked minimum-norm solve. The starts are one stack of transforms, a
ring of turns about the upright axis, each alone and composed with the x or
the y mirror (the z mirror is the x mirror turned half way, a start the ring
already has), all fitted from one shared source cloud; a start still two
gates off after its first step is abandoned. A component that stays on
itself under a turn finer than the ring (a round top) would propose its own
turns, so another serves as anchor where one can. The fits are clustered,
and each cluster's chordal mean is verified once as it stands: every
component is paired with the congruent one whose centroid and extent matrix
lie nearest its moved ones, all pairs in one broadcast; one joint refit over
the stacked correspondences of all those pairs polishes the transform, and
it survives only if every pair is under the gate at the refit's last
correspondences. A pair that maps a component onto itself is also probed by
a refit of that pair alone, which catches a component that only the other
pairs hold in place. The survivors are clustered again, so each distinct
symmetry appears once. Its face pairs feed the CRF's symmetry factors.
Detected symmetries are saved as one JSON document, face pairs as JSON
lines.
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
# how far, in gates, a component's moved centroid and extent matrix may lie
# from its target's: symmetries land within 1.5, most others past 2.8
_PAIRING_GATES = 2.0
_TRIVIAL_ANGLE = math.radians(2.0)
_CLUSTER_ANGLE = math.radians(5.0)
_CLUSTER_AXIS = math.radians(5.0)
_CLUSTER_TRANSLATION = 0.05
# a point-to-plane refit stops once a step moves the bounding sphere by
# less, four orders below the default gate (0.02 R): a shorter step only
# re-confirms a fit already reached
_REFIT_STEP = 1e-6
# a start whose rmsd after its first point-to-plane step is this many gates
# or more is dropped there: point-to-plane converges in a few steps, and a
# start that far off has not found a partner's match
_ABANDON_GATES = 2.0


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


def _refit(pairs, targets, normals, trees, rotations, translations, max_iter, center, radius, abandon=np.inf):
    """Point-to-plane ICP (Chen & Medioni 1992; Rusinkiewicz & Levoy 2001)
    of a stack of S motions (``rotations``, reflections allowed, and
    ``translations``), each over the stacked correspondences of every pair.

    ``pairs`` lists (moving cloud, target index j); each moved cloud is
    matched to its nearest points of ``targets[j]`` through ``trees[j]``, in
    one query per pair over all moving motions. Each step linearizes the
    rotation, solves for the small motion (w, v) that best slides all moved
    clouds at once onto the tangent planes of their nearest targets, and
    applies it as ``R <- dR R, t <- dR t + v`` with dR the exact rotation by
    w, so a reflection stays a reflection. Every moving motion takes its
    step together: one stacked minimum-norm solve, lstsq's cutoff and all,
    which leaves a free direction (a round top spun about its axis, a flat
    patch slid in its plane) at the start's value.
    A motion stops when a step moves the bounding sphere by less than
    _REFIT_STEP * radius, when its rmsd after its first step is ``abandon``
    or more, or after ``max_iter`` steps.

    Returns the rotations, the translations and, per pair, the (S, n)
    nearest distances of each motion's last query. After a stop on a short
    step they were measured before that step; after ``max_iter`` steps one
    more query measures them at the returned motion. Either way, each lies
    within _REFIT_STEP * radius of the distance under the returned motion,
    for clouds inside the bounding sphere.
    """
    source = np.vstack([cloud for cloud, _ in pairs])
    ends = np.cumsum([len(cloud) for cloud, _ in pairs])[:-1]
    r = np.array(rotations, dtype=np.float64)
    t = np.array(translations, dtype=np.float64)
    dists = [np.empty((len(r), len(cloud))) for cloud, _ in pairs]
    active = np.arange(len(r))
    for it in range(max_iter + 1):
        if len(active) == 0:
            break
        moved = source @ r[active].transpose(0, 2, 1) + t[active, None, :]
        idx = []
        for (_, j), part, dist in zip(pairs, np.split(moved, ends, axis=1), dists):
            dist[active], i = trees[j].query(part)
            idx.append(i)
        if it == max_iter:
            break
        if it == 1:
            rmsd = np.sqrt(np.mean(np.hstack([dist[active] for dist in dists]) ** 2, axis=1))
            keep = rmsd < abandon
            active, moved, idx = active[keep], moved[keep], [i[keep] for i in idx]
        nearest = np.concatenate([targets[j][i] for (_, j), i in zip(pairs, idx)], axis=1)
        n = np.concatenate([normals[j][i] for (_, j), i in zip(pairs, idx)], axis=1)
        # columns scaled to the radius so the solve does not depend on units
        a = np.concatenate([np.cross(moved, n) / radius, n], axis=2)
        b = np.einsum("sij,sij->si", nearest - moved, n)
        # every motion's minimum-norm step at once, with lstsq's cutoff
        # (singular values up to eps * max(M, N) of the largest are dropped)
        x = (np.linalg.pinv(a, rtol=None) @ b[:, :, None])[:, :, 0]
        w, v = x[:, :3] / radius, x[:, 3:]
        dr = Rotation.from_rotvec(w).as_matrix()
        r[active] = dr @ r[active]
        t[active] = (dr @ t[active, :, None])[:, :, 0] + v
        # bound on how far any point of the bounding sphere moved this step
        shift = np.linalg.norm(dr @ center + v - center, axis=1) + radius * np.linalg.norm(w, axis=1)
        active = active[shift >= _REFIT_STEP * radius]
    return r, t, dists


def _moments(clouds: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every cloud's centroid c, extent matrix E = V sqrt(L) V^T (the
    symmetric square root of its covariance V L V^T) and extents sqrt(L)
    along its principal axes, stacked; a cloud of fewer than 3 points reads
    zeros. A motion (R, t) maps (c, E) to (R c + t, R E R^T)."""
    centroids, covariances = np.zeros((len(clouds), 3)), np.zeros((len(clouds), 3, 3))
    for k, cloud in enumerate(clouds):
        if len(cloud) >= 3:
            centroids[k], covariances[k] = cloud.mean(axis=0), np.cov(cloud, rowvar=False)
    lam, v = np.linalg.eigh(covariances)
    extents = np.sqrt(np.clip(lam, 0.0, None))
    return centroids, (v * extents[:, None, :]) @ v.transpose(0, 2, 1), extents


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

    Two components are congruent when their principal extents agree, axis
    by axis, within a quarter of the larger or two gates. The anchor is the
    component with the fewest congruent partners, then the largest area,
    then the lowest index; one that a turn of half the ring's step about the
    upright axis keeps on itself under the gate is passed over when another
    will serve. Its cloud is fitted onto every partner from 24 starts, one
    stack on that one cloud: 8 turns about the upright axis, each alone and
    composed with the x and the y mirror, each translated to carry the
    anchor's centroid onto the partner's. Each start, like every fit here,
    is a point-to-plane refit (see _refit) of at most ``max_iter`` steps;
    one whose rmsd after its first step is _ABANDON_GATES gates or more
    stops there. Fits under the gate, ``rmsd_threshold * bounding_radius``,
    are kept, one onto a partner other than the anchor followed by its
    inverse (the pair partner, anchor); near-identities and translations
    are dropped, and the rest clustered by angle/axis/translation proximity.

    Each cluster's averaged transform is verified on the whole shape as it
    stands, in the order of the clusters' best fits, those of the anchor's
    cloud first; that order numbers the transform ids. Each component's
    target is the congruent partner whose centroid and extent matrix lie
    nearest its moved ones, within two gates (see _pairing). One refit runs
    over the stacked correspondences of all those pairs, each moving every
    fourth point of the component's dense cloud, and every pair's rmsd at
    its last query must be under the gate: congruences private to one pair
    (a cylindrical leg spun onto itself) do not count as shape symmetries.
    A pair that maps a component onto itself is also refitted alone from
    the joint fit, and dropped if that probe moves the component's sparse
    cloud by the gate (rms). The surviving pairs are clustered again.
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

    trees = [cKDTree(t) if len(t) >= 3 else None for t in targets]
    centroids, extent_matrices, extents = _moments(targets)
    # congruent[c, j]: component c's cloud may fit onto j's under the gate.
    # A gross mismatch of principal extents, axis by axis, cannot, so it is
    # never fitted or checked; a row is all False when c has no cloud to fit
    has_tree = np.array([tree is not None for tree in trees])
    valid = has_tree & np.array([len(cloud) >= 3 for cloud in sources])
    a, b = extents[:, None, :], extents[None, :, :]
    congruent = valid[:, None] & has_tree[None, :] & np.all(
        np.abs(a - b) <= np.maximum(0.25 * np.maximum(a, b), 2.0 * accept), axis=2)
    if not valid.any():
        return []
    # a component that a turn of half the ring's step keeps on itself (a
    # round top) is passed over as anchor when another will serve: its fits
    # land on its own turn nearest each start, which the shape may not share
    areas = np.bincount(mesh.face_component, weights=mesh.face_areas, minlength=n_comp)
    order = np.lexsort((-areas, congruent.sum(axis=1)))
    order = order[valid[order]].tolist()
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
    for j in np.flatnonzero(congruent[anchor]).tolist():
        r, t, dists = _refit(
            [(cloud, j)], targets, normals, trees, starts, targets[j].mean(axis=0) - turned_centroid,
            max_iter, center, radius, abandon=_ABANDON_GATES * accept,
        )
        rmsd = np.sqrt(np.mean(dists[0] * dists[0], axis=1))
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
    # each cluster's chordal mean is verified as it stands, the clusters
    # taken in the order of their best fits, those from the anchor first
    reps = {}
    for sym in sorted(_cluster(*candidates, radius), key=lambda s: (s.source_component != anchor, s.rmsd)):
        reps.setdefault(sym.transform_id, sym.transform)

    # the joint refit's last distances lie within _REFIT_STEP * radius of
    # those under the returned fit. Re-clustering merges duplicates, and fits
    # that slid toward the identity meet the trivial gate again. The other
    # pairs can hold a component where alone it would slide (a 16-gon top
    # under the shape's 120-degree turn): its probe slides it to a congruence
    # of that component alone (the top's own 112.5 degrees).
    refit = []  # rows as the candidates': rotation, translation, source, target, rmsd
    for rep in reps.values():
        pairs = _pairing(rep, centroids, extent_matrices, congruent, _PAIRING_GATES * accept)
        if pairs is None:
            continue
        moving = [(targets[c][::_REFIT_STRIDE], j) for c, j in pairs]
        r, t, dists = _refit(moving, targets, normals, trees, rep.rotation[None], rep.translation[None],
                             max_iter, center, radius)
        rmsds = [float(np.sqrt(np.mean(dist[0] * dist[0]))) for dist in dists]
        if _trivial(r)[0] or max(rmsds) >= accept:
            continue
        fit = RigidTransform(r[0], t[0])
        for (c, j), pair, rmsd in zip(pairs, moving, rmsds):
            if c == j:
                probe_r, probe_t, _ = _refit([pair], targets, normals, trees, r, t, max_iter, center, radius)
                slide = RigidTransform(probe_r[0], probe_t[0]).apply(sources[c]) - fit.apply(sources[c])
                if np.sqrt(np.mean(np.einsum("ij,ij->i", slide, slide))) >= accept:
                    continue
            refit.append((fit.rotation, fit.translation, c, j, rmsd))
    return _cluster(*(np.array(column) for column in zip(*refit)), radius) if refit else []


def _pairing(rep, centroids, extent_matrices, congruent, tol):
    """The (component, target) pair of each component c with a congruent
    partner under ``rep`` = (R, t): the partner j nearest by the moments (see
    _moments), hypot(|R c_c + t - c_j|, ||R E_c R^T - E_j||_F), the lowest j
    on ties. None when some component's target lies ``tol`` or more away."""
    rows = np.flatnonzero(congruent.any(axis=1))
    r = rep.rotation
    moved_centroids = rep.apply(centroids[rows])
    moved_extents = r @ extent_matrices[rows] @ r.T
    gaps = np.hypot(np.linalg.norm(moved_centroids[:, None] - centroids, axis=2),
                    np.linalg.norm(moved_extents[:, None] - extent_matrices, axis=(2, 3)))
    gaps = np.where(congruent[rows], gaps, np.inf)
    nearest = gaps.argmin(axis=1)
    if (gaps[np.arange(len(rows)), nearest] >= tol).any():
        return None
    return list(zip(rows.tolist(), nearest.tolist()))


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
