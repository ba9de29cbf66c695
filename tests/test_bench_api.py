"""The benchmark harness under bench/ calls the package directly. This test
runs its shared steps on one small suite shape, so a change to the package's
API that would break the harness fails here, not in a benchmark run."""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

import shapes  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer  # noqa: E402

from matseg.config import FEATURE_DIM  # noqa: E402
from matseg.crf import build_crf  # noqa: E402
from matseg.descriptor import predict_probs  # noqa: E402
from matseg.sampling import positions_of  # noqa: E402


def test_benchmark_steps_run_on_a_small_suite_shape():
    tr = NullTracer()
    [(_, spec, mesh)] = workloads.generate_shapes(tr, 1, [0])
    kept = workloads.sample(tr, mesh, spec.seed, drawn=60, kept=30)
    feats = workloads.features(tr, mesh, kept)
    net = workloads.train_net(tr, [feats], [kept], seed=1)
    probs, _ = predict_probs(net, feats)
    adj, dist, spairs = workloads.pair_factors(tr, mesh, shapes.builtin_symmetries(mesh, spec.category))
    graph = build_crf(mesh, positions_of(kept), probs, adj, dist, spairs,
                      truth=shapes.truth_matrix(mesh, workloads.MATS))
    assert len(kept) == 30
    assert feats.shape == (30, FEATURE_DIM)
    assert graph.n_faces == mesh.n_faces
    assert np.all(np.isfinite(graph.unary))
    assert workloads.infer(tr, graph).q.shape == (len(workloads.MATS), mesh.n_faces)
