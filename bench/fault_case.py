"""A fixed CRF on which mean-field inference falls into a period-2 cycle.

The graph in ``fault_case.json`` comes from the label-suite protocol with
one change: the CRF weights are trained on the descriptor's predicted
unaries instead of noisy truth. With such weights ``mean_field_infer``
can swing one material's beliefs between two states: the belief change
never falls below the tolerance, the free energy rises on every other
sweep, and the run stops at the sweep cap with ``converged=False``.

Usage:
    python3 bench/fault_case.py          # run inference on the stored graph
    python3 bench/fault_case.py --write  # rebuild the stored graph
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
FILE = os.path.join(HERE, "fault_case.json")
BUILD_SEEDS = range(10)
BUILD_ITERS = 10
# the held-out shapes searched, fixed here so --write reproduces the stored case
BUILD_HELDOUT = (1, 2, 15, 17, 19, 25, 26)


def load_graph(path: str = FILE):
    from matseg.crf import CrfGraph, CrfWeights

    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return CrfGraph(
        materials=tuple(doc["materials"]),
        n_faces=doc["n_faces"],
        unary=doc["unary"],
        edges=doc["edges"],
        coeffs=doc["coeffs"],
        weights=CrfWeights.from_obj(doc["weights"]),
    )


def build() -> dict:
    """Rerun the label-suite protocol with predicted-unary CRF training, seed
    by seed, and keep the smallest held-out graph that cycles."""
    import numpy as np

    for seed in BUILD_SEEDS:
        found = _cycling_graphs(seed)
        if found:
            _, index, g = min(found, key=lambda x: x[:2])
            break
    else:
        raise SystemExit("no held-out graph shows the cycle")
    return {
        "source": f"benchmark_suite()[{index}], label-suite protocol, seed {seed}, "
                  f"train_crf iters {BUILD_ITERS} on predicted unaries",
        "materials": list(g.materials),
        "n_faces": g.n_faces,
        "unary": np.asarray(g.unary).tolist(),
        "edges": {f: np.asarray(e).tolist() for f, e in g.edges.items()},
        "coeffs": {f: np.asarray(c).tolist() for f, c in g.coeffs.items()},
        "weights": g.weights.to_obj(),
    }


def _cycling_graphs(seed: int) -> list:
    import checks
    import shapes
    import workloads as w
    from matseg.crf import build_crf
    from matseg.descriptor import predict_probs
    from matseg.sampling import positions_of
    from tracing import NullTracer

    tr = NullTracer()
    train = w.generate_shapes(tr, seed, shapes.LABEL_TRAIN)
    samples = [w.sample(tr, mesh, spec.seed) for _, spec, mesh in train]
    feats = [w.features(tr, mesh, s) for (_, _, mesh), s in zip(train, samples)]
    net = w.train_net(tr, feats, samples, seed)
    graphs = []
    for (_, spec, mesh), kept, f in zip(train, samples, feats):
        probs, _ = predict_probs(net, f)
        adj, dist, spairs = w.pair_factors(tr, mesh, shapes.builtin_symmetries(mesh, spec.category))
        graphs.append(build_crf(mesh, positions_of(kept), probs, adj, dist, spairs,
                                truth=shapes.truth_matrix(mesh, w.MATS)))
    weights = w.train(tr, graphs, BUILD_ITERS)
    found = []
    for i, spec, mesh in w.generate_shapes(tr, seed, BUILD_HELDOUT):
        out = w.label_shape(tr, mesh, spec.seed, net, weights)
        if checks.free_energy_descends(out["marg"].free_energy) and not out["marg"].converged:
            found.append((mesh.n_faces, i, out["graph"]))
    return found


def main(argv: list[str]) -> int:
    import numpy as np

    import checks
    from matseg.crf import mean_field_infer

    if argv == ["--write"]:
        doc = build()
        with open(FILE, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")
    elif argv:
        print(__doc__, file=sys.stderr)
        return 2
    graph = load_graph()
    marg = mean_field_infer(graph)
    print(f"{graph.n_faces} faces: converged={marg.converged} after {marg.sweeps} sweeps, "
          f"largest free-energy rise {checks.free_energy_rise(marg.free_energy):.4g}")
    # rerun to the two sweeps before the cap: a 2-cycle returns to the same beliefs
    q1 = mean_field_infer(graph, max_iter=marg.sweeps - 1).q
    q2 = mean_field_infer(graph, max_iter=marg.sweeps - 2).q
    for m, name in enumerate(graph.materials):
        step = np.abs(marg.q[m] - q1[m]).max()
        period2 = np.abs(marg.q[m] - q2[m]).max()
        print(f"  {name:8s} belief change last sweep {step:.3g}, over two sweeps {period2:.3g}")
    return 0 if marg.converged and not checks.free_energy_descends(marg.free_energy) else 1


if __name__ == "__main__":
    import benchenv  # noqa: F401  (BLAS threads and import path, before numpy)

    sys.exit(main(sys.argv[1:]))
