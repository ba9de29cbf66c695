"""Rigid symmetry detection between mesh components.

Congruent components are matched by ICP started from a ring of rotations
about the upright axis, optionally composed with axis-aligned mirrors for
reflective symmetry. Accepted transforms are clustered so each distinct
symmetry appears once, then expanded into face pairs that feed the CRF's
symmetry factors.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.transform import Rotation

from .config import SymmetryConfig
from .errors import DegenerateGeometryError
from .mesh import UPRIGHT_AXIS, LabeledMesh

_N_INIT_ROTATIONS = 8
# dense target clouds keep the nearest-neighbor rmsd floor of a correct
# match well below the acceptance gate
_TARGET_DENSITY = 32
_TRIVIAL_ANGLE = math.radians(2.0)
_CLUSTER_ANGLE = math.radians(5.0)
_CLUSTER_AXIS = math.radians(5.0)
_CLUSTER_TRANSLATION = 0.05
# moved points queried before the rest in the arrangement check; their
# squared distances alone can already rule a target out
_EARLY_POINTS = 32
# the dense refit stops once a step moves the bounding sphere by less
_REFIT_STEP = 1e-9
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

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    @property
    def det(self) -> float:
        return float(np.sign(np.linalg.det(self.rotation)))

    @property
    def kind(self) -> str:
        return "rotational" if self.det > 0 else "reflective"

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.rotation.T + self.translation

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """self after other: (self.compose(other)).apply(x) = self(other(x))."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform(rt, -rt @ self.translation)

    def angle_axis(self) -> tuple[float, np.ndarray]:
        """Rotation angle in [0, pi] and unit axis.

        Reflections are read through the proper rotation -R, so a pure
        mirror reports angle pi about the mirror normal. The axis sign is
        arbitrary at angle pi.
        """
        r = self.rotation if self.det > 0 else -self.rotation
        cos = (np.trace(r) - 1.0) / 2.0
        angle = float(np.arccos(np.clip(cos, -1.0, 1.0)))
        if angle < 1e-9:
            return 0.0, np.array(UPRIGHT_AXIS, dtype=np.float64)
        if angle > np.pi - 1e-6:
            # r ~ 2 aa^T - I: read the axis off the stablest column
            b = (r + np.eye(3)) / 2.0
            k = int(np.argmax(np.diag(b)))
            axis = b[:, k]
            norm = float(np.linalg.norm(axis))
            if norm < 1e-12:
                return angle, np.array(UPRIGHT_AXIS, dtype=np.float64)
            return angle, axis / norm
        v = np.array(
            [r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]]
        )
        axis = v / (2.0 * np.sin(angle))
        return angle, axis / float(np.linalg.norm(axis))

    def rotation_angle(self) -> float:
        return self.angle_axis()[0]


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


def _check_rank(points: np.ndarray) -> None:
    centered = points - points.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[0] <= 0.0 or sv[1] <= 1e-9 * sv[0]:
        raise DegenerateGeometryError(
            "point set is collinear or degenerate (covariance rank < 2)"
        )


def _kabsch(src: np.ndarray, dst: np.ndarray, det_sign: float):
    sc = src.mean(axis=0)
    dc = dst.mean(axis=0)
    h = (src - sc).T @ (dst - dc)
    u, _, vt = np.linalg.svd(h)
    parity = float(np.linalg.det(vt.T @ u.T))
    s = det_sign * (1.0 if parity >= 0.0 else -1.0)
    r = vt.T @ np.diag([1.0, 1.0, s]) @ u.T
    t = dc - r @ sc
    return r, t


def _icp(source, target, tree, init, max_iter, tol, abandon=None):
    det_sign = init.det
    r = init.rotation
    t = init.translation
    dist, idx = tree.query(source @ r.T + t)
    rmsd = float(np.sqrt(np.mean(dist * dist)))
    for it in range(max_iter):
        # a fit still far above the acceptance gate after several sweeps
        # cannot reach it; cut the loop short
        if abandon is not None and it >= 6 and rmsd > abandon:
            break
        r, t = _kabsch(source, target[idx], det_sign)
        dist, idx = tree.query(source @ r.T + t)
        new = float(np.sqrt(np.mean(dist * dist)))
        done = abs(rmsd - new) < tol
        rmsd = new
        if done:
            break
    return RigidTransform(r, t), rmsd


def _refit(source, target, normals, tree, init, max_iter, center, radius):
    """Point-to-plane ICP (Rusinkiewicz & Levoy 2001) from ``init``.

    Each step linearizes the rotation, solves for the small motion (w, v)
    that best slides the moved source onto the tangent planes of its
    nearest targets, and applies it as ``R <- dR R, t <- dR t + v`` with
    dR the exact rotation by w, so a reflection stays a reflection. The
    minimum-norm solve leaves a free direction (a round top spun about its
    axis) at the start's value. Stops when a step moves the bounding sphere
    by less than _REFIT_STEP * radius. Returns the transform and its
    point-to-point rmsd.
    """
    r = init.rotation
    t = init.translation
    moved = source @ r.T + t
    dist, idx = tree.query(moved)
    for _ in range(max_iter):
        n = normals[idx]
        # columns scaled to the radius so the solve does not depend on units
        a = np.hstack([np.cross(moved, n) / radius, n])
        b = np.einsum("ij,ij->i", target[idx] - moved, n)
        x = np.linalg.lstsq(a, b, rcond=None)[0]
        w, v = x[:3] / radius, x[3:]
        dr = Rotation.from_rotvec(w).as_matrix()
        r = dr @ r
        t = dr @ t + v
        moved = source @ r.T + t
        dist, idx = tree.query(moved)
        # bound on how far any point of the bounding sphere moved this step
        shift = np.linalg.norm(dr @ center + v - center) + radius * np.linalg.norm(w)
        if shift < _REFIT_STEP * radius:
            break
    return RigidTransform(r, t), float(np.sqrt(np.mean(dist * dist)))


def icp_align(
    source: np.ndarray,
    target: np.ndarray,
    init: RigidTransform | None = None,
    max_iter: int = 50,
    tol: float = 1e-10,
) -> tuple[RigidTransform, float]:
    """Iterate nearest-neighbor matching and best rigid fit.

    The fitted matrix keeps the determinant sign of ``init``, so a mirrored
    initialization stays a reflection. Stops when the rmsd change drops
    below ``tol``. Collinear or near-coincident point sets raise
    DegenerateGeometryError.
    """
    src = np.asarray(source, dtype=np.float64).reshape(-1, 3)
    dst = np.asarray(target, dtype=np.float64).reshape(-1, 3)
    if len(src) == 0 or len(dst) == 0:
        raise ValueError("point sets must be non-empty")
    _check_rank(src)
    _check_rank(dst)
    if init is None:
        init = RigidTransform.identity()
    tree = cKDTree(dst)
    return _icp(src, dst, tree, init, max_iter, tol)


def _component_cloud(mesh: LabeledMesh, comp: int, n: int, rng):
    """n area-weighted surface samples of a component and the face of each."""
    faces = mesh.component_faces(comp)
    areas = mesh.face_areas[faces]
    total = float(areas.sum())
    if total <= 0.0 or len(faces) == 0:
        return np.zeros((0, 3)), np.zeros(0, dtype=np.int64)
    pick = rng.choice(faces, size=n, p=areas / total)
    r1 = np.sqrt(rng.random(n))
    r2 = rng.random(n)
    bary = np.stack([1.0 - r1, r1 * (1.0 - r2), r1 * r2], axis=1)
    return np.einsum("ik,ikj->ij", bary, mesh.vertices[mesh.faces[pick]]), pick


def _signature(cloud: np.ndarray) -> np.ndarray:
    """Sorted square roots of the PCA eigenvalues: the cloud's extent along
    its principal axes, unchanged by any rotation or reflection."""
    cov = np.cov(cloud, rowvar=False)
    return np.sqrt(np.clip(np.linalg.eigvalsh(cov), 0.0, None))


def _congruent(a: np.ndarray, b: np.ndarray, accept: float) -> bool:
    """Signatures close enough, axis by axis, that the clouds may fit under
    the rmsd gate; a gross mismatch cannot, so it skips the fits."""
    return bool(np.all(np.abs(a - b) <= np.maximum(0.25 * np.maximum(a, b), 2.0 * accept)))


def _axis_mirror(axis: int, center: np.ndarray) -> RigidTransform:
    r = np.eye(3)
    r[axis, axis] = -1.0
    return RigidTransform(r, center - r @ center)


def _y_rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _is_trivial(t: RigidTransform) -> bool:
    # identity and pure translations carry no label-coupling information
    return t.det > 0 and t.rotation_angle() < _TRIVIAL_ANGLE


def _same_cluster(a: RigidTransform, b: RigidTransform, radius: float) -> bool:
    if a.det * b.det < 0:
        return False
    ang_a, ax_a = a.angle_axis()
    ang_b, ax_b = b.angle_axis()
    if abs(ang_a - ang_b) > _CLUSTER_ANGLE:
        return False
    if np.linalg.norm(a.translation - b.translation) > _CLUSTER_TRANSLATION * radius:
        return False
    if max(ang_a, ang_b) > _TRIVIAL_ANGLE:
        dot = float(np.clip(ax_a @ ax_b, -1.0, 1.0))
        if ang_a > np.pi - _CLUSTER_ANGLE and ang_b > np.pi - _CLUSTER_ANGLE:
            dot = abs(dot)  # axis sign is undefined at a half turn
        if math.acos(dot) > _CLUSTER_AXIS:
            return False
    return True


def detect_symmetries(
    mesh: LabeledMesh,
    samples_per_component: int = SymmetryConfig.samples_per_component,
    rmsd_threshold: float = SymmetryConfig.rmsd_threshold,
    seed: int = 0,
    max_iter: int = SymmetryConfig.max_iter,
) -> list[DetectedSymmetry]:
    """Find rotational and reflective symmetries between components.

    Every component pair i <= j (including self pairs) whose principal
    extents agree is tested under four variants: direct, and mirrored
    across each axis-aligned plane through the bounding-sphere center. Each
    variant runs ICP from 8 rotations about the upright axis; fits with
    rmsd below ``rmsd_threshold * bounding_radius`` are kept, and for
    i < j their inverses stand for the pair (j, i). Near-identity and
    translation-only fits are discarded, and the survivors clustered by
    angle/axis/translation proximity into distinct transforms. A cluster
    survives only if its transform maps every component onto matching
    geometry, so congruences private to one pair (a cylindrical leg spun
    onto itself) do not count as shape symmetries. Each surviving pair is
    then refitted point-to-plane on the dense clouds and clustered again.
    """
    rng = np.random.default_rng(seed)
    radius = mesh.bounding_radius
    center = mesh.bounding_center
    n_comp = mesh.n_components

    sources = []
    targets = []
    normals = []
    for c in range(n_comp):
        sources.append(_component_cloud(mesh, c, samples_per_component, rng)[0])
        cloud, faces = _component_cloud(
            mesh, c, _TARGET_DENSITY * samples_per_component, rng
        )
        targets.append(cloud)
        normals.append(mesh.face_normals[faces])

    variants = [RigidTransform.identity()] + [
        _axis_mirror(axis, center) for axis in range(3)
    ]
    angles = [2.0 * np.pi * k / _N_INIT_ROTATIONS for k in range(_N_INIT_ROTATIONS)]
    tol = 1e-9 * radius
    accept = rmsd_threshold * radius

    trees = [cKDTree(t) if len(t) >= 3 else None for t in targets]
    signatures = [None if tree is None else _signature(t) for t, tree in zip(targets, trees)]
    tgt_centroids = [t.mean(axis=0) if len(t) else None for t in targets]

    def congruent(i: int, j: int) -> bool:
        return _congruent(signatures[i], signatures[j], accept)

    # mirroring the source cloud instead of the target keeps one tree per
    # target component serving all four variants. Only pairs i <= j are
    # fitted: a fit of i onto j inverted is a fit of j onto i.
    candidates: list[tuple[RigidTransform, int, int, float]] = []
    for i in range(n_comp):
        if len(sources[i]) < 3 or trees[i] is None:
            continue
        for variant in variants:
            src = variant.apply(sources[i])
            src_centroid = src.mean(axis=0)
            for j in range(i, n_comp):
                if trees[j] is None or not congruent(i, j):
                    continue
                for angle in angles:
                    r0 = _y_rotation(angle)
                    init = RigidTransform(r0, tgt_centroids[j] - r0 @ src_centroid)
                    # coarse tolerance: candidates only need to land in the
                    # right cluster, the refinement pass repolishes
                    fit, rmsd = _icp(
                        src, targets[j], trees[j], init, max_iter,
                        max(tol, 0.02 * accept), abandon=3.0 * accept,
                    )
                    full = fit.compose(variant)
                    if rmsd >= accept or _is_trivial(full):
                        continue
                    candidates.append((full, i, j, rmsd))
                    if i < j:
                        candidates.append((full.inverse(), j, i, rmsd))

    syms = _cluster(candidates, radius)
    if not syms:
        return syms

    # a pair of congruent components (two identical legs, a cylinder onto
    # itself at any offset) fits under the gate without being a symmetry
    # of the shape; keep only transforms that map every component onto
    # matching geometry
    keep = {
        cid: _maps_arrangement(rep, sources, trees, congruent, accept)
        for cid, rep in unique_transforms(syms).items()
    }
    syms = [s for s in syms if keep[s.transform_id]]

    # refinement pass: re-fit every surviving pair with the dense clouds
    # from the averaged representative; correspondence noise drops with
    # the larger source count. Coarsely-stopped fits that were actually
    # sliding toward the identity converge there now, so the trivial and
    # acceptance gates apply again, and re-clustering merges duplicates.
    refit: list[tuple[RigidTransform, int, int, float]] = []
    for s in syms:
        j = s.target_component
        fit, rmsd = _refit(
            targets[s.source_component], targets[j], normals[j], trees[j],
            s.transform, min(max_iter, _REFIT_MAX_ITER), center, radius,
        )
        if rmsd >= accept or _is_trivial(fit):
            continue
        refit.append((fit, s.source_component, j, rmsd))
    return _cluster(refit, radius)


def _maps_arrangement(
    t: RigidTransform,
    sources: list[np.ndarray],
    trees: list[cKDTree | None],
    congruent: Callable[[int, int], bool],
    accept: float,
) -> bool:
    """Whether ``t`` takes every component's cloud onto some congruent
    component with rmsd under ``accept``.

    The first _EARLY_POINTS moved points are queried alone: once their
    squared distances sum to n * accept**2 the full rmsd cannot pass, so
    the target is dropped without querying the rest.
    """
    for c, cloud in enumerate(sources):
        if len(cloud) < 3:
            continue
        moved = t.apply(cloud)
        bound = len(moved) * accept * accept
        head, tail = moved[:_EARLY_POINTS], moved[_EARLY_POINTS:]
        for j, tree in enumerate(trees):
            if tree is None or not congruent(c, j):
                continue
            d_head, _ = tree.query(head)
            if float(d_head @ d_head) >= bound:
                continue
            dist = np.concatenate([d_head, tree.query(tail)[0]])
            if np.sqrt(np.mean(dist * dist)) < accept:
                break
        else:
            return False
    return True


def _mean_transform(transforms: list[RigidTransform]) -> RigidTransform:
    """Chordal mean: SVD projection of the averaged rotation matrix.

    All members share one determinant sign (clusters never mix kinds), so
    the projection is constrained to that sign.
    """
    rot = np.mean([t.rotation for t in transforms], axis=0)
    u, _, vt = np.linalg.svd(rot)
    if np.linalg.det(u @ vt) * transforms[0].det < 0:
        u[:, -1] = -u[:, -1]
    translation = np.mean([t.translation for t in transforms], axis=0)
    return RigidTransform(u @ vt, translation)


def _cluster(candidates, radius: float) -> list[DetectedSymmetry]:
    m = len(candidates)
    if m == 0:
        return []
    parent = list(range(m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # vectorized _same_cluster over all pairs; candidate counts reach the
    # hundreds and per-pair angle_axis calls dominate otherwise
    dets = np.array([c[0].det for c in candidates])
    trans = np.stack([c[0].translation for c in candidates])
    angs = np.empty(m)
    axes = np.empty((m, 3))
    for k, c in enumerate(candidates):
        angs[k], axes[k] = c[0].angle_axis()

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

    for a, b in np.argwhere(np.triu(same, 1)):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[rb] = ra

    roots: dict[int, int] = {}
    members: dict[int, list[RigidTransform]] = {}
    pair_best: dict[tuple[int, int, int], float] = {}
    for idx in range(m):
        t, i, j, rmsd = candidates[idx]
        root = find(idx)
        if root not in roots:
            roots[root] = len(roots)
        cid = roots[root]
        members.setdefault(cid, []).append(t)
        key = (cid, i, j)
        if key not in pair_best or rmsd < pair_best[key]:
            pair_best[key] = rmsd

    # averaging the members cancels the per-fit sampling noise
    representative = {cid: _mean_transform(ts) for cid, ts in members.items()}

    out = [
        DetectedSymmetry(
            transform=representative[cid],
            source_component=i,
            target_component=j,
            rmsd=rmsd,
            transform_id=cid,
        )
        for (cid, i, j), rmsd in pair_best.items()
    ]
    out.sort(key=lambda d: (d.transform_id, d.source_component, d.target_component))
    return out


def unique_transforms(symmetries: list[DetectedSymmetry]) -> dict[int, RigidTransform]:
    return {s.transform_id: s.transform for s in symmetries}


def symmetry_pairs(
    mesh: LabeledMesh,
    symmetries: list[DetectedSymmetry],
    residual_cutoff: float = SymmetryConfig.residual_cutoff,
) -> list[SymmetryPair]:
    """Map each source face through its transform to the nearest target face.

    Residual s is normalized by the bounding radius and clamped to [0, 1];
    pairs above ``residual_cutoff`` are dropped, as are self pairs. A face
    pair reachable through several transforms keeps its smallest residual.
    """
    centroids = mesh.face_centroids()
    radius = mesh.bounding_radius
    best: dict[tuple[int, int], SymmetryPair] = {}
    for sym in symmetries:
        sf = mesh.component_faces(sym.source_component)
        tf = mesh.component_faces(sym.target_component)
        if len(sf) == 0 or len(tf) == 0:
            continue
        tree = cKDTree(centroids[tf])
        dist, idx = tree.query(sym.transform.apply(centroids[sf]))
        s = np.minimum(dist / radius, 1.0)
        for k in range(len(sf)):
            if s[k] > residual_cutoff:
                continue
            fa = int(sf[k])
            fb = int(tf[idx[k]])
            if fa == fb:
                continue
            key = (fa, fb) if fa < fb else (fb, fa)
            prev = best.get(key)
            if prev is None or s[k] < prev.s:
                best[key] = SymmetryPair(fa, fb, float(s[k]), sym.transform_id)
    return [best[k] for k in sorted(best)]


def transform_to_obj(t: RigidTransform) -> dict:
    flat = np.hstack([t.rotation, t.translation.reshape(3, 1)]).ravel()
    return {"matrix": [float(x) for x in flat], "kind": t.kind}


def transform_from_obj(obj: dict) -> RigidTransform:
    m = np.array(obj["matrix"], dtype=np.float64).reshape(3, 4)
    return RigidTransform(m[:, :3], m[:, 3])


def save_symmetries(path: str, symmetries: list[DetectedSymmetry]) -> None:
    records = []
    for s in symmetries:
        rec = transform_to_obj(s.transform)
        rec.update(
            source_component=s.source_component,
            target_component=s.target_component,
            rmsd=s.rmsd,
            transform_id=s.transform_id,
        )
        records.append(rec)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"symmetries": records}, fh, indent=1)
        fh.write("\n")


def load_symmetries(path: str) -> list[DetectedSymmetry]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return [
        DetectedSymmetry(
            transform=transform_from_obj(rec),
            source_component=int(rec["source_component"]),
            target_component=int(rec["target_component"]),
            rmsd=float(rec["rmsd"]),
            transform_id=int(rec["transform_id"]),
        )
        for rec in doc["symmetries"]
    ]


def save_symmetry_pairs(path: str, pairs: list[SymmetryPair]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in pairs:
            fh.write(
                json.dumps(
                    {
                        "face_a": p.face_a,
                        "face_b": p.face_b,
                        "s": p.s,
                        "transform_id": p.transform_id,
                    }
                )
                + "\n"
            )


def load_symmetry_pairs(path: str) -> list[SymmetryPair]:
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            pairs.append(
                SymmetryPair(
                    int(rec["face_a"]),
                    int(rec["face_b"]),
                    float(rec["s"]),
                    int(rec["transform_id"]),
                )
            )
    return pairs
