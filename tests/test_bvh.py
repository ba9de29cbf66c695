"""BVH ray queries against a brute-force loop over every triangle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_shapes
from matseg.bvh import TriangleBvh


def brute_force(vertices, faces, origins, dirs, t_min, t_max):
    """Nearest hit parameter in (t_min, t_max) per ray, inf on a miss.

    Runs the Möller-Trumbore test on every triangle in turn, vectorized
    over the rays only; no tree, no culling.
    """
    best = np.full(len(origins), np.inf)
    for v0, v1, v2 in vertices[faces]:
        e1, e2 = v1 - v0, v2 - v0
        pvec = np.cross(dirs, e2)
        det = pvec @ e1
        valid = np.abs(det) > 1e-300
        inv_det = np.where(valid, 1.0 / np.where(valid, det, 1.0), 0.0)
        tvec = origins - v0
        u = np.einsum("ij,ij->i", tvec, pvec) * inv_det
        qvec = np.cross(tvec, e1)
        v = np.einsum("ij,ij->i", qvec, dirs) * inv_det
        t = (qvec @ e2) * inv_det
        hit = (valid & (u >= -1e-12) & (v >= -1e-12) & (u + v <= 1.0 + 1e-12)
               & (t > t_min) & (t < t_max))
        best = np.where(hit & (t < best), t, best)
    return best


def check_queries(vertices, faces, origins, dirs, t_min, t_max):
    bvh = TriangleBvh(vertices, faces)
    radius = np.linalg.norm(vertices - vertices.mean(axis=0), axis=1).max()

    want = brute_force(vertices, faces, origins, dirs, t_min, np.inf)
    got = bvh.first_hit(origins, dirs, t_min=t_min)
    assert got.shape == (len(origins),)
    assert np.array_equal(np.isfinite(got), np.isfinite(want))
    hit = np.isfinite(want)
    assert np.all(np.abs(got[hit] - want[hit]) <= 1e-12 * radius)

    blocked = bvh.any_hit(origins, dirs, t_max=t_max, t_min=t_min)
    want_blocked = np.isfinite(brute_force(vertices, faces, origins, dirs, t_min, t_max))
    assert np.array_equal(blocked, want_blocked)
    return want_blocked


def ray_directions(rng, n, axis_parallel):
    if axis_parallel:  # two zero components each: inverse directions of +-inf
        return np.eye(3)[rng.integers(0, 3, n)] * rng.choice([-1.0, 1.0], size=(n, 1))
    dirs = rng.normal(size=(n, 3))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_tris=st.integers(1, 80),
    n_rays=st.integers(0, 60),
    axis_parallel=st.booleans(),
    t_min=st.sampled_from([0.0, 1e-9, 0.3]),
    cut=st.booleans(),
)
def test_random_soup_matches_brute_force(seed, n_tris, n_rays, axis_parallel, t_min, cut):
    rng = np.random.default_rng(seed)
    vertices = rng.uniform(-1.0, 1.0, size=(3 * n_tris, 3))
    faces = np.arange(3 * n_tris).reshape(-1, 3)
    origins = rng.uniform(-1.5, 1.5, size=(n_rays, 3))
    dirs = ray_directions(rng, n_rays, axis_parallel)
    t_max = rng.uniform(0.0, 3.0, n_rays) if cut else np.full(n_rays, np.inf)
    check_queries(vertices, faces, origins, dirs, t_min, t_max)


def test_subdivided_suite_meshes_match_brute_force():
    rng = np.random.default_rng(5)
    for mesh in dense_shapes(levels=1):
        radius = mesh.bounding_radius
        faces = rng.integers(0, mesh.n_faces, 150)
        bary = rng.dirichlet(np.ones(3), 150)
        surface = np.einsum("ik,ikj->ij", bary, mesh.vertices[mesh.faces[faces]])
        normals = mesh.face_normals[faces]
        # nudged off the surface outward and inward (visibility and
        # thickness rays), plus free points around the shape
        origins = np.vstack([surface + 1e-3 * radius * normals, surface - 1e-5 * radius * normals,
                             mesh.bounding_center + rng.uniform(-radius, radius, (100, 3))])
        for axis_parallel in (False, True):
            dirs = ray_directions(rng, len(origins), axis_parallel)
            t_max = rng.uniform(0.0, 2.0 * radius, len(origins))
            blocked = check_queries(mesh.vertices, mesh.faces, origins, dirs, 1e-9 * radius, t_max)
            assert 0 < blocked.sum() < len(blocked)


def test_empty_ray_set_and_single_leaf():
    rng = np.random.default_rng(0)
    vertices = rng.uniform(-1.0, 1.0, size=(24, 3))
    faces = np.arange(24).reshape(-1, 3)
    bvh = TriangleBvh(vertices, faces)
    assert bvh.depth == 0 and len(bvh.left) == 1
    none = np.zeros((0, 3))
    assert bvh.first_hit(none, none).shape == (0,)
    assert bvh.any_hit(none, none, t_max=np.zeros(0)).shape == (0,)
    # a tree of more than one leaf answers an empty set too
    big = TriangleBvh(rng.uniform(-1.0, 1.0, size=(300, 3)), np.arange(300).reshape(-1, 3))
    assert big.depth > 0
    assert big.first_hit(none, none).shape == (0,)


def test_ray_in_the_plane_of_a_box_face():
    # the triangle's box is flat in z and starts at x = 0; the first ray runs
    # inside the plane x = 0 (0 * inf in the slab test) onto the edge x = 0
    vertices = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    faces = np.array([[0, 1, 2]])
    origins = np.array([[0.0, 0.2, 1.0], [0.1, 0.2, 1.0], [-0.1, 0.2, 1.0]])
    dirs = np.array([[0.0, 0.0, -1.0]] * 3)
    with np.errstate(all="raise"):
        blocked = check_queries(vertices, faces, origins, dirs, 0.0, np.full(3, 2.0))
    assert blocked.tolist() == [True, True, False]
