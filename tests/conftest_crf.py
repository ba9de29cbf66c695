"""Shared CRF test fixtures: random graphs and a finite-difference checker."""

import numpy as np

from matseg.crf import FAMILIES, CrfGraph, CrfWeights, crf_gradient, exact_log_likelihood


def random_graph(rng, n_faces, materials, weight_scale=1.0, with_truth=False):
    """Generic random graph over the three edge families."""
    m = len(materials)
    unary = rng.uniform(0.05, 0.95, size=(m, n_faces))
    edges, coeffs = {}, {}
    for fam, density in (("adj", 0.6), ("dist", 0.4), ("sym", 0.4)):
        pairs = [(a, b) for a in range(n_faces) for b in range(a + 1, n_faces)
                 if rng.random() < density]
        if not pairs and n_faces > 1:
            pairs = [(0, 1)]
        if pairs:
            edges[fam] = np.array(pairs)
            coeffs[fam] = rng.uniform(0.0, 1.0, size=len(pairs))
    w = CrfWeights.ones(materials)
    w.scales *= weight_scale
    truth = (rng.random((m, n_faces)) < 0.5).astype(float) if with_truth else None
    return CrfGraph(materials=materials, n_faces=n_faces, unary=unary,
                    edges=edges, coeffs=coeffs, weights=w, truth=truth)


def coherent_graph(rng, n_faces, materials, lo=0.001, hi=0.004):
    """Weakly-coupled training fixture whose gradient entries stay well
    away from zero.

    Edge coefficients sit just off 0.5 on one side per fixture, so the
    signed terms in each family-scale gradient accumulate instead of
    cancelling; constant truth rows keep every table slot's data statistic
    at an extreme. At coefficient 0.5 the agree and disagree potentials
    coincide, so the residual coupling (and with it the factorization bias
    of the model expectation) shrinks linearly with the offset.
    """
    m = len(materials)
    unary = rng.uniform(0.3, 0.7, size=(m, n_faces))
    side = 1.0 if rng.random() < 0.5 else -1.0
    edges, coeffs = {}, {}
    for fam, density in (("adj", 0.6), ("dist", 0.4), ("sym", 0.4)):
        pairs = [(a, b) for a in range(n_faces) for b in range(a + 1, n_faces)
                 if rng.random() < density]
        if not pairs:
            pairs = [(0, 1 % n_faces)]
        edges[fam] = np.array(pairs)
        coeffs[fam] = 0.5 + side * rng.uniform(lo, hi, size=len(pairs))
    truth = np.array([[float((i + int(rng.random() < 0.5)) % 2)] * n_faces
                      for i in range(m)])
    return CrfGraph(materials=materials, n_faces=n_faces, unary=unary,
                    edges=edges, coeffs=coeffs,
                    weights=CrfWeights.ones(materials), truth=truth)


def fd_check(graph, h=1e-5):
    """Relative error of every analytic gradient entry against central
    finite differences of the exact (brute-force) log-likelihood."""
    gs, gt, _ = crf_gradient(graph)
    errs = []
    w = graph.weights

    def exact():
        return exact_log_likelihood(graph, graph.truth)

    for i, fam in enumerate(FAMILIES):
        if len(graph.edges.get(fam, ())) == 0:
            continue
        for m in range(graph.n_materials):
            w.scales[i, m] += h
            up = exact()
            w.scales[i, m] -= 2 * h
            dn = exact()
            w.scales[i, m] += h
            fd = (up - dn) / (2 * h)
            err = abs(gs[i, m] - fd) / max(abs(fd), 1e-8)
            errs.append((err, abs(fd), f"{fam}.scale[{m}]"))
            for a, b in ((0, 0), (0, 1), (1, 1)):
                w.tables[i, m, a, b] += h
                if a != b:
                    w.tables[i, m, b, a] += h
                up = exact()
                w.tables[i, m, a, b] -= 2 * h
                if a != b:
                    w.tables[i, m, b, a] -= 2 * h
                dn = exact()
                w.tables[i, m, a, b] += h
                if a != b:
                    w.tables[i, m, b, a] += h
                fd = (up - dn) / (2 * h)
                err = abs(gt[i, m, a, b] - fd) / max(abs(fd), 1e-8)
                errs.append((err, abs(fd), f"{fam}.table[{m},{a},{b}]"))
    return errs
