from dataclasses import replace

import numpy as np
import pytest

from matseg.materials import MaterialLabelSet
from matseg.mesh import build_mesh, load_obj
from matseg.synth import benchmark_suite, generate

CUBE_OBJ = """\
v 0 0 0
v 1 0 0
v 1 1 0
v 0 1 0
v 0 0 1
v 1 0 1
v 1 1 1
v 0 1 1
g top
f 4 8 7
f 4 7 3
g rest
f 1 2 6
f 1 6 5
f 5 6 7
f 5 7 8
f 1 4 3
f 1 3 2
f 1 5 8
f 1 8 4
f 2 3 7
f 2 7 6
"""


@pytest.fixture
def cube_path(tmp_path):
    p = tmp_path / "cube.obj"
    p.write_text(CUBE_OBJ)
    return str(p)


@pytest.fixture
def cube(cube_path):
    return load_obj(cube_path)


def strip_mesh(n_quads: int = 5) -> "LabeledMesh":
    """Triangulated strip whose dual graph is a path of 2*n_quads faces."""
    bottom = [(float(i), 0.0, 0.0) for i in range(n_quads + 1)]
    top = [(float(i), 1.0, 0.0) for i in range(n_quads + 1)]
    vertices = np.array(bottom + top)
    t0 = n_quads + 1
    faces = []
    for i in range(n_quads):
        faces.append((i, i + 1, t0 + i))
        faces.append((i + 1, t0 + i + 1, t0 + i))
    faces = np.array(faces)
    return build_mesh(vertices, faces, ("strip",), np.zeros(len(faces), dtype=np.int64))


def labeled(*names: str) -> MaterialLabelSet:
    return MaterialLabelSet(names)


def subdivide(mesh, levels: int = 1):
    """1:4 midpoint subdivision, ``levels`` times; children keep their
    parent's component, and a shared edge gets one midpoint."""
    for _ in range(levels):
        v, f = mesh.vertices, mesh.faces
        edges = np.sort(np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]]), axis=1)
        uniq, inv = np.unique(edges, axis=0, return_inverse=True)
        m01, m12, m20 = inv.reshape(3, -1) + len(v)
        a, b, c = f.T
        children = np.stack([np.stack(t, axis=1) for t in
                             ((a, m01, m20), (m01, b, m12), (m20, m12, c), (m01, m12, m20))], axis=1)
        mesh = build_mesh(np.vstack([v, 0.5 * (v[uniq[:, 0]] + v[uniq[:, 1]])]),
                          children.reshape(-1, 3), mesh.component_names,
                          np.repeat(mesh.face_component, 4), labels=mesh.labels)
    return mesh


def dense_shapes(levels: int):
    """A prism/pinwheel table and a cylinder-leg chair of the benchmark
    suite, jittered by 0.002 R and subdivided ``levels`` times."""
    specs = benchmark_suite()
    return [subdivide(generate(replace(specs[i], jitter=0.002, seed=i)), levels) for i in (2, 12)]
