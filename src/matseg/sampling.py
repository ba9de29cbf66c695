"""Surface point sampling, visibility filtering, and even subsampling.

Mirrors the train/test point protocol: draw area-weighted points, discard the
externally invisible ones, then thin to a fixed count with farthest-point
subsampling. The samples are one table of arrays, ``Samples``, with a row
per point. All randomness flows through an explicit seed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .bvh import TriangleBvh
from .config import SamplingConfig
from .errors import EmptyMeshError, InterchangeError, InvalidKError
from .jsonl import finite_array, read_jsonl, record_line, write_jsonl
from .materials import multihot
from .mesh import LabeledMesh

_RELAX_CANDIDATES = 8
# visibility traces every _VISIBILITY_STRIDE-th direction per round; after
# _STRIDED_ROUNDS rounds few samples are pending, and one call for all their
# other directions costs less than a BVH traversal per further round
_VISIBILITY_STRIDE = 8
_STRIDED_ROUNDS = 2


@dataclass(frozen=True, eq=False)
class Samples:
    """Points on a mesh's faces, one row per sample.

    ``positions`` (S, 3), ``faces`` (S,), ``barycentric`` (S, 3), and
    ``labels`` (S, M): row i marks, over MATERIALS, the label set of sample
    i's face's component with 0/1. A sample's normal is its face's,
    ``mesh.face_normals[faces]``.
    """

    positions: np.ndarray
    faces: np.ndarray
    barycentric: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.faces)

    def take(self, rows) -> Samples:
        """The samples at ``rows``, indices or a boolean mask, in that order."""
        return Samples(self.positions[rows], self.faces[rows], self.barycentric[rows], self.labels[rows])


# the benchmark harness imports positions_of (bench/workloads.py, bench/fault_case.py)
def positions_of(samples: Samples) -> np.ndarray:
    return samples.positions


def sample_surface_points(
    mesh: LabeledMesh,
    n: int,
    seed: int,
    relax_iterations: int = SamplingConfig.relax_iterations,
) -> Samples:
    """Draw ``n`` area-weighted surface points, then even them out.

    The relaxation repeatedly replaces the most crowded sample (smallest
    nearest-neighbor distance) with the best of a few fresh candidate draws,
    farthest-point style. Samples inherit the label set of their face's
    component.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    total = mesh.total_area()
    if total <= 0.0:
        raise EmptyMeshError("mesh has zero surface area")
    rng = np.random.default_rng(seed)
    every = np.arange(mesh.n_faces)
    faces, bary, pos = draw_surface(mesh, every, n, rng)
    if relax_iterations > 0 and n >= 3:
        faces, bary, pos = _relax(mesh, rng, every, faces, bary, pos, relax_iterations)
    return Samples(pos, faces, bary, _labels_of(mesh, faces))


def _labels_of(mesh: LabeledMesh, faces: np.ndarray) -> np.ndarray:
    """(S, M) 0/1 rows: the label set of each face's component."""
    return multihot(mesh.labels)[mesh.face_component[faces]]


def draw_surface(mesh: LabeledMesh, faces: np.ndarray, count: int, rng):
    """``count`` area-weighted random points on ``faces``: the face,
    barycentric coordinates and position of each. Faces of no area give
    no points."""
    areas = mesh.face_areas[faces]
    total = float(areas.sum())
    if total <= 0.0:
        return faces[:0], np.zeros((0, 3)), np.zeros((0, 3))
    picked = rng.choice(faces, size=count, p=areas / total)
    r1 = np.sqrt(rng.random(count))
    r2 = rng.random(count)
    bary = np.stack([1.0 - r1, r1 * (1.0 - r2), r1 * r2], axis=1)
    return picked, bary, np.einsum("ik,ikj->ij", bary, mesh.vertices[mesh.faces[picked]])


def _relax(mesh, rng, every, faces, bary, pos, iterations):
    for _ in range(iterations):
        tree = cKDTree(pos)
        dist, _ = tree.query(pos, k=2)
        crowded = int(np.argmin(dist[:, 1]))
        others = np.delete(pos, crowded, axis=0)
        other_tree = cKDTree(others)
        cand_faces, cand_bary, cand_pos = draw_surface(mesh, every, _RELAX_CANDIDATES, rng)
        cand_dist, _ = other_tree.query(cand_pos)
        best = int(np.argmax(cand_dist))
        if cand_dist[best] > dist[crowded, 1]:
            faces = faces.copy()
            bary = bary.copy()
            faces[crowded] = cand_faces[best]
            bary[crowded] = cand_bary[best]
            pos[crowded] = cand_pos[best]
    return faces, bary, pos


def _fibonacci_directions(count: int) -> np.ndarray:
    k = np.arange(count, dtype=np.float64)
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    y = 1.0 - 2.0 * (k + 0.5) / count
    r = np.sqrt(np.maximum(0.0, 1.0 - y * y))
    theta = 2.0 * np.pi * k / phi
    return np.stack([r * np.cos(theta), y, r * np.sin(theta)], axis=1)


def visibility_filter(
    mesh: LabeledMesh,
    samples: Samples,
    n_rays: int = SamplingConfig.visibility_rays,
    offset: float = SamplingConfig.visibility_offset,
) -> Samples:
    """Keep samples that can see past the bounding sphere along some ray.

    A sample is visible iff at least one of ``n_rays`` directions (covering
    the sphere evenly) escapes to the bounding sphere unobstructed. Origins
    are nudged off the surface along the sample normal. The first
    ``_STRIDED_ROUNDS`` rounds each trace every ``_VISIBILITY_STRIDE``-th
    direction, and a sample leaves as soon as one of its rays escapes; a
    round spreads its directions over the whole sphere, so most samples
    leave in the first. One last round traces all the other directions of
    the samples still pending. The result is that of tracing all ``n_rays``
    directions: the visible samples, in their input order.
    """
    if not samples:
        return samples
    bvh = TriangleBvh(mesh.vertices, mesh.faces)
    dirs = _fibonacci_directions(n_rays)
    radius = mesh.bounding_radius
    origins = samples.positions + offset * radius * mesh.face_normals[samples.faces]
    exit_radius = radius * 1.001 + offset * radius

    strided = np.arange(n_rays) % _VISIBILITY_STRIDE
    rounds = [dirs[strided == k] for k in range(_STRIDED_ROUNDS)]
    rounds.append(dirs[strided >= _STRIDED_ROUNDS])
    visible = np.zeros(len(samples), dtype=bool)
    for batch in rounds:
        pending = np.flatnonzero(~visible)
        if len(pending) == 0 or len(batch) == 0:
            break
        ray_origins = np.repeat(origins[pending], len(batch), axis=0)
        ray_dirs = np.tile(batch, (len(pending), 1))
        t_exit = _sphere_exit(ray_origins, ray_dirs, mesh.bounding_center, exit_radius)
        blocked = bvh.any_hit(ray_origins, ray_dirs, t_max=t_exit, t_min=1e-12 * radius)
        visible[pending] = ~blocked.reshape(len(pending), len(batch)).all(axis=1)
    return samples.take(visible)


def _sphere_exit(origins, dirs, center, radius):
    """Ray parameter at which each (unit-direction) ray leaves the sphere."""
    oc = origins - center
    b = np.einsum("ij,ij->i", oc, dirs)
    c = np.einsum("ij,ij->i", oc, oc) - radius * radius
    disc = b * b - c
    t = -b + np.sqrt(np.maximum(disc, 0.0))
    # origin outside the sphere pointing away: nothing to escape through
    return np.where(disc > 0.0, np.maximum(t, 0.0), 0.0)


def subsample_even(samples: Samples, k: int, seed: int) -> Samples:
    """Greedy farthest-point subsample of exactly ``k`` samples.

    Starts from a seeded random sample and repeatedly adds the sample
    farthest from the current selection. Asking for more samples than exist
    returns everything and warns; asking for fewer than one raises
    InvalidKError.
    """
    if k < 1:
        raise InvalidKError(f"k={k} must be at least 1")
    if k > len(samples):
        warnings.warn(
            f"requested {k} samples but only {len(samples)} available; returning all",
            stacklevel=2,
        )
        return samples
    rng = np.random.default_rng(seed)
    return samples.take(farthest_points(samples.positions, k, int(rng.integers(len(samples)))))


def farthest_points(points: np.ndarray, k: int, first: int) -> list[int]:
    """Indices of ``k`` greedy farthest-point picks, from index ``first``:
    each pick is the point farthest from all earlier picks."""
    chosen = [first]
    dist = np.linalg.norm(points - points[first], axis=1)
    for _ in range(k - 1):
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        dist = np.minimum(dist, np.linalg.norm(points - points[nxt], axis=1))
    return chosen


def save_samples(path: str, samples: Samples) -> None:
    """Write where each sample lies, as JSON lines: {position, face,
    barycentric}. Its labels follow from the face, so they are not written."""
    write_jsonl(path, (
        {"position": p, "face": f, "barycentric": b}
        for p, f, b in zip(samples.positions.tolist(), samples.faces.tolist(),
                           samples.barycentric.tolist())
    ))


def load_samples(path: str, mesh: LabeledMesh) -> Samples:
    """Read samples written by save_samples.

    Every sample's face must be one of the mesh's faces, its barycentric
    coordinates convex, and its position their combination of the face's
    corners within 1e-9 times the bounding radius. The labels column is the
    mesh's, as sample_surface_points sets it; other keys of a line, such as
    the labels and visible flag that older files carry, are ignored.
    """
    def face(f: int) -> int:
        if not 0 <= f < mesh.n_faces:
            raise ValueError(f"face {f} is not one of the mesh's {mesh.n_faces} faces")
        return f

    point = (list, lambda values: finite_array(values, (3,)))
    fields = {"position": point, "face": (int, face), "barycentric": point}
    recs = list(read_jsonl(path, fields))
    positions, barycentric = (np.array([rec[key] for rec in recs]).reshape(-1, 3)
                              for key in ("position", "barycentric"))
    faces = np.array([rec["face"] for rec in recs], dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads as a miss
        convex = (barycentric.min(axis=1) >= -1e-12) & (np.abs(barycentric.sum(axis=1) - 1.0) <= 1e-9)
        on_face = np.einsum("ij,ijk->ik", barycentric, mesh.vertices[mesh.faces[faces]])
        ok = convex & (np.linalg.norm(positions - on_face, axis=1) <= 1e-9 * mesh.bounding_radius)
    if not ok.all():
        i = int(np.argmin(ok))
        wrong = (f"position {positions[i].tolist()} is off face {faces[i]}" if convex[i]
                 else f"barycentric {barycentric[i].tolist()} is not convex")
        raise InterchangeError(path, wrong, record_line(path, i))
    return Samples(positions, faces, barycentric, _labels_of(mesh, faces))
