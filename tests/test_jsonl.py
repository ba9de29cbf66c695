"""Damaged JSON-lines interchange files: read whole or rejected, never half-read."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from matseg.cli import read_face_truth, write_face_truth
from matseg.crf import (
    Marginals,
    PredictedLabels,
    load_face_predictions,
    load_sample_probs,
    predict_labels,
    save_face_predictions,
    save_sample_probs,
)
from matseg.errors import MatsegError
from matseg.geodesics import DistancePair, load_distance_pairs, save_distance_pairs
from matseg.jsonl import write_jsonl
from matseg.materials import MATERIALS
from matseg.mesh import attach_labels
from matseg.sampling import load_samples, sample_surface_points, save_samples
from matseg.symmetry import SymmetryPair, load_symmetry_pairs, save_symmetry_pairs

from conftest import strip_mesh

MESH = attach_labels(strip_mesh(2), {"strip": ["wood", "metal"]})
_RNG = np.random.default_rng(7)
_Q = _RNG.uniform(0.05, 0.95, size=(len(MATERIALS), MESH.n_faces))
_PROBS = _RNG.uniform(0.0, 1.0, size=(3, len(MATERIALS)))


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
            path, [DistancePair(0, 1, 0.25), DistancePair(1, 3, 0.5), DistancePair(2, 7, 0.125)]),
        load_distance_pairs,
        save_distance_pairs,
        list,
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
}


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    name=st.sampled_from(sorted(FORMATS)),
    op=st.sampled_from(["replace", "insert", "delete"]),
    where=st.floats(0.0, 1.0, exclude_max=True),
    byte=st.one_of(st.integers(0, 255), st.sampled_from(b'0123456789-+.eE"{}[],: \n\r\t')),
)
def test_damaged_file_reads_whole_or_raises(tmp_path, name, op, where, byte):
    write, read, rewrite, key = FORMATS[name]
    path = str(tmp_path / f"{name}.jsonl")
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
        again = str(tmp_path / "again.jsonl")
        rewrite(again, result)
        assert key(read(again)) == key(result)
