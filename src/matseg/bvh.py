"""Axis-aligned BVH over triangles for batched ray queries.

The tree is stored as flat node arrays. A query gives every ray its own
small stack of node ids and advances all active rays together, one node
per ray per step. A step runs one vectorized slab test over the popped
nodes, pushes the children of the entered inner nodes (far first, so the
near one is popped next), and runs one Möller-Trumbore test over every
(ray, triangle) pair of the entered leaves. The Python-level cost is a few
dozen numpy calls per step, and the number of steps is the longest
traversal of any one ray, not the node count or the ray count. ``any_hit``
retires a ray at its first hit; ``first_hit`` culls the nodes that lie
beyond the nearest hit found so far.
"""

from __future__ import annotations

import numpy as np

_LEAF_SIZE = 8


class TriangleBvh:
    """Median-split AABB tree over a triangle soup."""

    def __init__(self, vertices: np.ndarray, faces: np.ndarray):
        tri = np.asarray(vertices, dtype=np.float64)[np.asarray(faces, dtype=np.int64)]
        self.v0 = tri[:, 0]
        self.e1 = tri[:, 1] - tri[:, 0]
        self.e2 = tri[:, 2] - tri[:, 0]
        n = len(tri)

        lo = tri.min(axis=1)
        hi = tri.max(axis=1)
        centroids = tri.mean(axis=1)

        # Children as node indices (-1 at leaves); the split axis orders the
        # left child's centroids below the right child's. Leaves list their
        # triangles in leaf_tris, padded with -1.
        node_lo, node_hi, left, right, axes, leaves = [], [], [], [], [], []
        order = np.arange(n)
        depth = 0

        def build(begin: int, end: int, level: int) -> int:
            nonlocal depth
            depth = max(depth, level)
            node = len(node_lo)
            idx = order[begin:end]
            node_lo.append(lo[idx].min(axis=0))
            node_hi.append(hi[idx].max(axis=0))
            left.append(-1)
            right.append(-1)
            axes.append(0)
            if end - begin <= _LEAF_SIZE:
                leaves.append((node, idx))
                return node
            cen = centroids[idx]
            axis = int(np.argmax(cen.max(axis=0) - cen.min(axis=0)))
            mid = (begin + end) // 2
            order[begin:end] = idx[np.argsort(cen[:, axis], kind="stable")]
            axes[node] = axis
            left[node] = build(begin, mid, level + 1)
            right[node] = build(mid, end, level + 1)
            return node

        build(0, n, 0)
        self.node_lo = np.array(node_lo)
        self.node_hi = np.array(node_hi)
        self.left = np.array(left, dtype=np.int64)
        self.right = np.array(right, dtype=np.int64)
        self.axis = np.array(axes, dtype=np.int64)
        self.leaf_tris = np.full((len(node_lo), _LEAF_SIZE), -1, dtype=np.int64)
        for node, idx in leaves:
            self.leaf_tris[node, : len(idx)] = idx
        self.depth = depth

    def any_hit(self, origins: np.ndarray, dirs: np.ndarray, t_max: np.ndarray, t_min: float = 0.0) -> np.ndarray:
        """Boolean per ray: does anything block it within (t_min, t_max)?"""
        origins, dirs = np.atleast_2d(origins), np.atleast_2d(dirs)
        t_max = np.broadcast_to(np.asarray(t_max, dtype=np.float64), (len(origins),))
        t = self._traverse(origins, dirs, t_min, t_max.copy(), any_hit=True)
        return t < t_max

    def first_hit(self, origins: np.ndarray, dirs: np.ndarray, t_min: float = 0.0) -> np.ndarray:
        """Distance to the nearest intersection per ray, inf when nothing is hit."""
        origins, dirs = np.atleast_2d(origins), np.atleast_2d(dirs)
        return self._traverse(origins, dirs, t_min, np.full(len(origins), np.inf), any_hit=False)

    def _traverse(self, origins, dirs, t_min, best, any_hit: bool) -> np.ndarray:
        """Lower ``best`` to each ray's hit parameter in (t_min, best).

        With ``any_hit`` a ray stops at the first hit it finds, which need
        not be the nearest one.
        """
        n = len(origins)
        with np.errstate(divide="ignore"):
            inv_dirs = 1.0 / dirs
        # popping a node at level L leaves at most one waiting far sibling
        # per level above it; its two children then fill at most L + 2 <=
        # depth + 1 slots
        stack = np.empty((n, self.depth + 1), dtype=np.int32)
        stack[:, 0] = 0
        size = np.ones(n, dtype=np.int64)
        active = np.arange(n)
        while len(active):
            size[active] -= 1
            nodes = stack[active, size[active]]
            o = origins[active]
            inv = inv_dirs[active]
            # 0 * inf is nan where a ray runs inside the plane of a box face;
            # that axis then bounds nothing, so the reductions skip nans
            with np.errstate(invalid="ignore"):
                t1 = (self.node_lo[nodes] - o) * inv
                t2 = (self.node_hi[nodes] - o) * inv
            tnear = np.fmax.reduce(np.minimum(t1, t2), axis=1)
            tfar = np.fmin.reduce(np.maximum(t1, t2), axis=1)
            enter = (tnear <= tfar) & (tfar >= 0.0) & (tnear <= best[active])
            rays, nodes = active[enter], nodes[enter]

            inner = self.left[nodes] >= 0
            r, nd = rays[inner], nodes[inner]
            flip = dirs[r, self.axis[nd]] < 0.0
            top = size[r]
            stack[r, top] = np.where(flip, self.left[nd], self.right[nd])
            stack[r, top + 1] = np.where(flip, self.right[nd], self.left[nd])
            size[r] = top + 2

            r, tris = rays[~inner], self.leaf_tris[nodes[~inner]]
            if len(r):
                row, col = np.nonzero(tris >= 0)
                ray = r[row]
                t = self._intersect(origins[ray], dirs[ray], tris[row, col], t_min, best[ray])
                if any_hit:
                    hit = ray[t < np.inf]
                    best[hit] = t[t < np.inf]
                    size[hit] = 0
                else:
                    np.minimum.at(best, ray, t)
            active = active[size[active] > 0]
        return best

    def _intersect(self, origins, dirs, tris, t_lo, t_hi) -> np.ndarray:
        """Möller-Trumbore hit parameter per (ray, triangle) pair, inf on a miss."""
        e1 = self.e1[tris]
        e2 = self.e2[tris]
        pvec = _cross(dirs, e2)
        det = _dot(pvec, e1)
        valid = np.abs(det) > 1e-300
        inv_det = np.where(valid, 1.0 / np.where(valid, det, 1.0), 0.0)
        tvec = origins - self.v0[tris]
        u = _dot(tvec, pvec) * inv_det
        qvec = _cross(tvec, e1)
        v = _dot(qvec, dirs) * inv_det
        t = _dot(qvec, e2) * inv_det
        hit = (
            valid
            & (u >= -1e-12)
            & (v >= -1e-12)
            & (u + v <= 1.0 + 1e-12)
            & (t > t_lo)
            & (t < t_hi)
        )
        return np.where(hit, t, np.inf)


_NEXT = [1, 2, 0]
_PREV = [2, 0, 1]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross product, the arithmetic of np.cross without its axis handling."""
    return a[:, _NEXT] * b[:, _PREV] - a[:, _PREV] * b[:, _NEXT]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)
