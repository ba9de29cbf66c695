"""Damaged interchange files, JSON lines and JSON documents: read whole or
rejected, never half-read."""

import ast
import dataclasses
import pathlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from matseg.cli import read_face_truth, write_face_truth
from matseg.crf import (
    CrfWeights,
    Marginals,
    PredictedLabels,
    load_face_predictions,
    load_sample_probs,
    predict_labels,
    save_face_predictions,
    save_sample_probs,
)
from matseg.descriptor import DescriptorNet
from matseg.errors import InterchangeError, MatsegError
from matseg.geodesics import load_distance_pairs, save_distance_pairs
from matseg.jsonl import write_jsonl
from matseg.materials import MATERIALS
from matseg.mesh import FacePairs, attach_labels, load_labels, save_labels
from matseg.sampling import load_samples, sample_surface_points, save_samples
from matseg.symmetry import (
    DetectedSymmetry,
    RigidTransform,
    SymmetryPair,
    load_symmetries,
    load_symmetry_pairs,
    save_symmetries,
    save_symmetry_pairs,
)
from matseg.synth import SynthSpec, load_spec, save_spec

from conftest import strip_mesh

MESH = attach_labels(strip_mesh(2), {"strip": ["wood", "metal"]})
_RNG = np.random.default_rng(7)
_Q = _RNG.uniform(0.05, 0.95, size=(len(MATERIALS), MESH.n_faces))
_PROBS = _RNG.uniform(0.0, 1.0, size=(3, len(MATERIALS)))
_SPEC = SynthSpec(category="chair", legs=3, leg_shape="box", top_shape="round",
                  materials={"seat": ["fabric"], "leg": ["metal", "wood"]}, jitter=0.002, seed=12)
_MIRROR = np.diag([-1.0, 1.0, 1.0])
_SYMMETRIES = [
    DetectedSymmetry(RigidTransform(_MIRROR, [0.25, 0.0, 0.0]), 0, 1, 0.0125, 0),
    DetectedSymmetry(RigidTransform(np.eye(3)[[2, 1, 0]] * [[1], [1], [-1]], [0.0, 0.0, 0.5]),
                     2, 3, 0.0078125, 1),
]
_NET = DescriptorNet(layer_sizes=(64, 2, 2, 2), n_classes=5, seed=4)
_WEIGHTS = CrfWeights.ones()
_WEIGHTS.scales[1, 2] = 1.75  # dist
_WEIGHTS.tables[2, 1, 0, 1] = _WEIGHTS.tables[2, 1, 1, 0] = 0.25  # sym


def _save_truth(path, truth):
    write_jsonl(path, ({"face": f, "labels": [MATERIALS[k] for k in np.flatnonzero(row)]}
                       for f, row in enumerate(truth)))


def _save_predictions(path, result):
    top1, label_sets, q = result
    save_face_predictions(path, Marginals(q=q, converged=True, sweeps=1),
                          PredictedLabels(top1=top1, label_sets=label_sets))


def _sample_key(samples):
    return [(s.position.tolist(), s.face, s.barycentric.tolist(), s.labels, s.visible)
            for s in samples]


def _symmetries_key(symmetries):
    return [(s.transform.rotation.tolist(), s.transform.translation.tolist(),
             s.source_component, s.target_component, s.rmsd, s.transform_id)
            for s in symmetries]


def _net_key(net):
    return net.layer_sizes, net.n_classes, [net.params[k].tolist() for k in sorted(net.params)]


def _arrays_key(result):
    if isinstance(result, tuple):
        return tuple(_arrays_key(r) for r in result)
    return np.asarray(result).tolist()


# name: (write a valid file, read, write what was read, comparable form of a result)
FORMATS = {
    "samples": (
        lambda path: save_samples(path, sample_surface_points(MESH, 3, seed=1)),
        lambda path: load_samples(path, MESH),
        save_samples,
        _sample_key,
    ),
    "sample_probs": (
        lambda path: save_sample_probs(path, _PROBS),
        load_sample_probs,
        save_sample_probs,
        _arrays_key,
    ),
    "geodesic_pairs": (
        lambda path: save_distance_pairs(
            path, FacePairs(np.array([[0, 1], [1, 3], [2, 7]]), np.array([0.25, 0.5, 0.125]))),
        load_distance_pairs,
        save_distance_pairs,
        lambda pairs: (pairs.pairs.tolist(), pairs.value.tolist()),
    ),
    "symmetry_pairs": (
        lambda path: save_symmetry_pairs(
            path, [SymmetryPair(0, 4, 0.0625, 0), SymmetryPair(1, 5, 0.0, 1)]),
        load_symmetry_pairs,
        save_symmetry_pairs,
        list,
    ),
    "predictions": (
        lambda path: save_face_predictions(
            path, Marginals(q=_Q, converged=True, sweeps=1),
            predict_labels(Marginals(q=_Q, converged=True, sweeps=1))),
        load_face_predictions,
        _save_predictions,
        _arrays_key,
    ),
    "face_truth": (
        lambda path: write_face_truth(path, MESH),
        read_face_truth,
        _save_truth,
        _arrays_key,
    ),
    "labels": (
        lambda path: save_labels(path, MESH),
        lambda path: attach_labels(strip_mesh(2), load_labels(path)),
        save_labels,
        lambda mesh: [labels and labels.names() for labels in mesh.labels],
    ),
    "spec": (
        lambda path: save_spec(path, _SPEC),
        load_spec,
        save_spec,
        dataclasses.asdict,
    ),
    "symmetries": (
        lambda path: save_symmetries(path, _SYMMETRIES),
        load_symmetries,
        save_symmetries,
        _symmetries_key,
    ),
    "net": (
        _NET.save,
        DescriptorNet.load,
        lambda path, net: net.save(path),
        _net_key,
    ),
    "crf_weights": (
        _WEIGHTS.save,
        CrfWeights.load,
        lambda path, weights: weights.save(path),
        CrfWeights.to_obj,
    ),
}


@settings(max_examples=600, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    name=st.sampled_from(sorted(FORMATS)),
    op=st.sampled_from(["replace", "insert", "delete"]),
    where=st.floats(0.0, 1.0, exclude_max=True),
    byte=st.one_of(st.integers(0, 255), st.sampled_from(b'0123456789-+.eE"{}[],: \n\r\t')),
)
def test_damaged_file_reads_whole_or_raises(tmp_path, name, op, where, byte):
    write, read, rewrite, key = FORMATS[name]
    path = str(tmp_path / name)
    write(path)
    data = bytearray(open(path, "rb").read())
    original = key(read(path))
    at = int(where * len(data))
    if op == "replace":
        data[at] = byte
    elif op == "insert":
        data.insert(at, byte)
    else:
        del data[at]
    with open(path, "wb") as fh:
        fh.write(data)
    try:
        result = read(path)
    except MatsegError:
        return
    # accepted: either the damage left the content as it was, or it changed a
    # value into another valid one, which the writer writes and reads back as is
    if key(result) != original:
        again = str(tmp_path / "again")
        rewrite(again, result)
        assert key(read(again)) == key(result)


def test_only_jsonl_imports_json():
    """The interchange layouts and their checks live in one module."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "matseg"
    importers = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(n == "json" or n.startswith("json.") for n in names if n):
                importers.add(path.name)
    assert importers == {"jsonl.py"}


@pytest.mark.parametrize("key, value", [
    ("face_a", 2**63), ("face_b", 99999999999999999999), ("transform_id", -2**63 - 1)])
def test_symmetry_pairs_reject_ids_beyond_int64(tmp_path, key, value):
    path = str(tmp_path / "symmetry_pairs.jsonl")
    records = [{"face_a": 0, "face_b": 4, "s": 0.0625, "transform_id": 0}] * 2
    write_jsonl(path, records[:1] + [{**records[1], key: value}])
    with pytest.raises(InterchangeError, match=f"line 2: {value} does not fit in 64 bits"):
        load_symmetry_pairs(path)
