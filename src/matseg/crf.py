"""Binary CRF over (material, face) variables with symmetry-aware factors.

Each material m gets one binary variable per face. Unaries come from the
nearest sampled point's predicted probabilities. Three pairwise factor
families couple faces: surface adjacency (coefficient = dihedral angle
over pi), geodesic proximity (normalized distance), and detected symmetry
(normalized residual). For a family with squared coefficient k and a
material's symmetric, nonnegative 2x2 weight table T:

    log phi(l, l)  = -T[l, l] * k
    log phi(l, l') = -T[l, l'] * (1 - k)   for l != l'

CrfWeights stacks every material's T in FAMILIES order as (3, M, 2, 2)
tables; the log score is linear in them, and its gradient takes the same shape.

Inference is synchronous mean field whose step grows to the full update
and backtracks on a rise, so the free energy never rises; training is
gradient ascent on the mean-field-approximated log-likelihood. Every
factor couples only same-material variables, so the materials are
independent subproblems. They are solved as one batch: beliefs form a
(face, material) array, and each sweep is one sparse product with a
per-graph operator that stacks every family's k and (1 - k) matrices, the
weights entering as per-material column coefficients. Each material still
stops on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree
from scipy.special import expit, logsumexp

from .config import CrfConfig
from .errors import InterchangeError, InvalidGraphError, MissingDataError, MissingUnariesError, OracleSizeError
from .jsonl import (
    check_magnitude, check_record, finite_array, one_of, read_json, read_jsonl, unit, write_json, write_jsonl,
)
from .materials import MATERIALS, NUM_MATERIALS, material_indices
from .mesh import FacePairs, LabeledMesh
from .symmetry import SymmetryPair

FAMILIES = ("adj", "dist", "sym")
PROB_CLAMP = 1e-6
# a sweep's free energy rises when it exceeds the last by more than this
# share of its size, above the rounding of a sum over thousands of faces
_ROUNDING = 1e-12
_MAX_HALVINGS = 20
_ORACLE_LIMIT = 20
_WEIGHTS_FORMAT = "crf-weights-v2"
# the earlier layout: each table times a per-material scale
_V1_FORMAT = "crf-weights-v1"


class CrfWeights:
    """Per-material symmetric 2x2 weight ``tables`` (families, M, 2, 2)
    stacked in FAMILIES order, index i belonging to FAMILIES[i]. The
    crf-weights-v2 document keys them by family name.
    """

    __slots__ = ("materials", "tables")

    def __init__(self, materials, tables):
        self.materials = tuple(materials)
        self.tables = np.array(tables, dtype=np.float64).reshape(len(FAMILIES), len(self.materials), 2, 2)

    @classmethod
    def ones(cls, materials=MATERIALS) -> "CrfWeights":
        return cls(materials, np.ones((len(FAMILIES), len(materials), 2, 2)))

    def copy(self) -> "CrfWeights":
        return CrfWeights(self.materials, self.tables)

    def project(self) -> None:
        """Re-symmetrize and clip the tables to nonnegative in place."""
        t = self.tables
        off = 0.5 * (t[..., 0, 1] + t[..., 1, 0])
        t[..., 0, 1] = t[..., 1, 0] = off
        np.maximum(t, 0.0, out=t)

    def to_obj(self) -> dict:
        return {
            "format": _WEIGHTS_FORMAT,
            "materials": list(self.materials),
            "tables": dict(zip(FAMILIES, self.tables.tolist())),
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "CrfWeights":
        """Projected weights from a to_obj document over MATERIALS, or from a
        crf-weights-v1 one as its tables times their nonnegative scales;
        ValueError for anything else, or for a projected weight beyond the
        float range or beyond MAX_MAGNITUDE, which inference could not
        compute with."""
        check_record(obj, _WEIGHT_FIELDS)
        w = cls(obj["materials"], [obj["tables"][f] for f in FAMILIES])
        with np.errstate(over="ignore"):  # rejected below
            if obj["format"] == _V1_FORMAT:
                scales = check_record(obj, _V1_FIELDS)["scales"]
                w.tables *= np.maximum([scales[f] for f in FAMILIES], 0.0)[..., None, None]
            w.project()
        if not np.isfinite(w.tables).all():
            raise ValueError("a weight overflows the float range")
        for family, table in zip(FAMILIES, w.tables):
            check_magnitude(table, f'tables["{family}"]')
        return w

    def save(self, path: str) -> None:
        write_json(path, self.to_obj())

    @classmethod
    def load(cls, path: str) -> "CrfWeights":
        """Read weights written by save, or a crf-weights-v1 file;
        InterchangeError names a file that from_obj would reject."""
        doc = read_json(path, _WEIGHT_FIELDS)
        try:
            return cls.from_obj(doc)
        except ValueError as exc:
            raise InterchangeError(path, str(exc)) from None


def _per_family(shape):
    """A check that {family: numbers} has every family, each numbers of ``shape``."""
    def check(values: dict) -> dict:
        if values.keys() != set(FAMILIES):
            raise ValueError(f"expected an entry for each of {list(FAMILIES)}, got {list(values)}")
        for f in FAMILIES:
            finite_array(values[f], shape)
        return values
    return check


# materials in any order but MATERIALS' would apply each weight to another one
_WEIGHT_FIELDS = {
    "format": (str, one_of(_WEIGHTS_FORMAT, _V1_FORMAT)),
    "materials": (list, one_of(list(MATERIALS))),
    "tables": (dict, _per_family((NUM_MATERIALS, 2, 2))),
}
_V1_FIELDS = {"scales": (dict, _per_family((NUM_MATERIALS,)))}


@dataclass
class CrfGraph:
    """Factor graph data: unaries, per-family edge lists, and weights.

    ``unary`` holds P(C=1) per (material, face), already clamped away from
    0 and 1. ``coeffs`` store the squared coefficient per edge (omega^2,
    d^2, or s^2), each in [0, 1]. ``truth`` optionally carries binary
    ground-truth labels for training. Edges, coefficients and truth are
    fixed once constructed (the sparse coupling operator and the truth's
    score terms are built from them); weights may be swapped or updated in
    place at any time.
    """

    materials: tuple[str, ...]
    n_faces: int
    unary: np.ndarray
    edges: dict[str, np.ndarray]
    coeffs: dict[str, np.ndarray]
    weights: CrfWeights
    truth: np.ndarray | None = None
    _coupling: "_Coupling" = field(init=False, repr=False, compare=False)
    _truth_terms: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = len(self.materials)
        self.unary = np.asarray(self.unary, dtype=np.float64).reshape(m, self.n_faces)
        self.unary = np.clip(self.unary, PROB_CLAMP, 1.0 - PROB_CLAMP)
        for f in FAMILIES:
            e = np.asarray(self.edges.get(f, np.zeros((0, 2))), dtype=np.int64).reshape(-1, 2)
            c = np.asarray(self.coeffs.get(f, np.zeros(0)), dtype=np.float64).reshape(-1)
            if len(e) != len(c):
                raise InvalidGraphError(f"{f}: edge/coefficient length mismatch")
            if len(e) and (e.min() < 0 or e.max() >= self.n_faces):
                raise InvalidGraphError(f"{f}: edge references an invalid face")
            if not np.all((c >= -1e-12) & (c <= 1.0 + 1e-12)):  # NaN fails both
                raise InvalidGraphError(f"{f}: coefficients must be finite and lie in [0, 1]")
            self.edges[f] = e
            self.coeffs[f] = np.clip(c, 0.0, 1.0)
        if self.truth is not None:
            self.truth = np.asarray(self.truth, dtype=np.float64).reshape(m, self.n_faces)
        self._coupling = _Coupling(self.n_faces, self.edges, self.coeffs)
        self._truth_terms = None if self.truth is None else _score_terms(self, self.truth)

    @property
    def n_materials(self) -> int:
        return len(self.materials)

    @property
    def n_variables(self) -> int:
        return self.n_materials * self.n_faces


@dataclass
class Marginals:
    """Mean-field beliefs q = P(C=1) per (material, face)."""

    q: np.ndarray
    converged: bool
    sweeps: int
    free_energy: list[float] = field(default_factory=list)
    halvings: int = 0


def build_crf(
    mesh: LabeledMesh,
    sample_positions: np.ndarray,
    sample_probs: np.ndarray,
    adjacency: FacePairs | None = None,
    dist_pairs: FacePairs | None = None,
    sym_pairs: list[SymmetryPair] | None = None,
    weights: CrfWeights | None = None,
    truth: np.ndarray | None = None,
) -> CrfGraph:
    """Assemble the graph: nearest-sample unaries plus three edge families.

    Each face takes the probabilities of the sample nearest its centroid.
    Edge coefficients are squared here, so downstream code only sees k and
    (1 - k).
    """
    positions = np.asarray(sample_positions, dtype=np.float64).reshape(-1, 3)
    probs = np.asarray(sample_probs, dtype=np.float64)
    if len(positions) == 0:
        raise MissingUnariesError("no unary samples provided")
    if probs.shape != (len(positions), NUM_MATERIALS):
        raise MissingUnariesError(
            f"probabilities of shape {probs.shape} for {len(positions)} samples "
            f"and {NUM_MATERIALS} materials"
        )
    _, nearest = cKDTree(positions).query(mesh.face_centroids())
    unary = probs[nearest].T

    edges: dict[str, np.ndarray] = {}
    coeffs: dict[str, np.ndarray] = {}
    for family, face_pairs in (("adj", adjacency), ("dist", dist_pairs)):
        if face_pairs:
            edges[family] = face_pairs.pairs
            coeffs[family] = face_pairs.value ** 2
    if sym_pairs:
        edges["sym"] = np.array([[p.face_a, p.face_b] for p in sym_pairs], dtype=np.int64)
        coeffs["sym"] = np.array([p.s for p in sym_pairs]) ** 2

    if weights is None:
        weights = CrfWeights.ones()
    return CrfGraph(
        materials=MATERIALS,
        n_faces=mesh.n_faces,
        unary=unary,
        edges=edges,
        coeffs=coeffs,
        weights=weights,
        truth=truth,
    )


class _Coupling:
    """Every family's k and (1 - k) matrices side by side in one CSR.

    ``matrix`` is (F, blocks * F), blocks [K_adj | D_adj | K_dist | ...]
    over the families with edges: K holds k and D holds 1 - k on both
    orientations of each edge. Built once per graph from its edges and
    coefficients; weights enter each call as column coefficients.
    ``row_sums`` (blocks, F) give the products with q0 = 1 - q: K q0 = K 1 - K q.
    """

    def __init__(self, n: int, edges: dict, coeffs: dict):
        # 32-bit indices, as scipy stores them when they fit: no 64-bit copies at the peak
        idx = np.int32 if 2 * len(FAMILIES) * n < 2**31 else np.int64
        rows, cols, vals = [], [], []
        for e, k in ((edges[f].astype(idx), coeffs[f]) for f in FAMILIES if len(edges[f])):
            r, c = np.concatenate([e[:, 0], e[:, 1]]), np.concatenate([e[:, 1], e[:, 0]])
            for v in (k, 1.0 - k):
                rows.append(r)
                cols.append(c + idx(len(vals) * n))
                vals.append(np.concatenate([v, v]))
        sums = [np.bincount(r, v, n) for r, v in zip(rows, vals)]
        self.row_sums = np.reshape(sums, (len(vals), n))
        data, r, c = (np.concatenate(a) if a else np.zeros(0, idx) for a in (vals, rows, cols))
        self.matrix = sparse.csr_matrix((data, (r, c)), shape=(n, len(vals) * n), dtype=np.float64)

    def apply(self, coef: np.ndarray, q: np.ndarray) -> np.ndarray:
        """G = sum_b coef[b] * (block_b @ q) for (F, A) beliefs and (blocks, A)
        column coefficients, as one sparse-times-dense product."""
        return self.matrix @ (coef[:, None, :] * q).reshape(-1, q.shape[1])


def _field_terms(graph: CrfGraph):
    """Weight-dependent terms of the update, one column per material.

    With the q0 products expanded through the row sums, the update's
    log-odds are ``offset - G`` and the free energy of q is ``const`` plus
    the sum over faces of ``q (G/2 - offset) + q log q + q0 log q0``. Returns
    (coef (blocks, M), offset (F, M), const (M,)). All of it is
    elementwise per material, so a material's beliefs do not depend on
    which other materials share a batch.
    """
    rs = graph._coupling.row_sums
    live = [i for i, f in enumerate(FAMILIES) if len(graph.edges[f])]
    t = graph.weights.tables[live]
    a00, a01 = t[..., 0, 0], t[..., 0, 1]
    coef = np.stack([a00 + t[..., 1, 1], -2.0 * a01], axis=1).reshape(-1, graph.n_materials)
    log_u1 = np.log(graph.unary)
    log_u0 = np.log(1.0 - graph.unary)
    offset = (log_u1 - log_u0).T
    const = -log_u0.sum(axis=1)
    for i in range(len(live)):
        offset = offset + rs[2 * i][:, None] * a00[i] - rs[2 * i + 1][:, None] * a01[i]
        const = const + 0.5 * rs[2 * i].sum() * a00[i]
    return coef, offset, const


def _energies(q: np.ndarray, g: np.ndarray, offset: np.ndarray, const: np.ndarray) -> np.ndarray:
    """Free energy per column of (F, A) beliefs, given G of those beliefs."""
    q0 = 1.0 - q
    terms = q * (0.5 * g - offset) + q * np.log(q) + q0 * np.log(q0)
    # each column summed as a contiguous row: the same bits whatever the
    # batch width, and several times faster than the strided reduction
    return const + terms.T.copy().sum(axis=1)


def mean_field_infer(graph: CrfGraph, max_iter: int = CrfConfig.infer_iter,
                     tol: float = CrfConfig.infer_tol) -> Marginals:
    """Synchronous mean field with a backtracking step, all materials at once.

    Beliefs start at the unaries and form one (F, M) array. Each sweep
    computes fresh beliefs from the current ones with one sparse product
    and steps toward them, half way in the first sweep. The free energy's
    gradient is logit(q) - logit(fresh), so ``fresh - q`` always descends:
    a material whose step raises its free energy by more than rounding
    halves the step until it does not, at most _MAX_HALVINGS times per
    sweep, the halving materials re-scored together in one product; after
    a sweep without halving it tries twice its step, up to the full
    update. The product of the accepted beliefs serves the next sweep. A
    material stops on its own once a half step would change no belief by
    ``tol`` or more, or after ``max_iter`` sweeps, and stays frozen: only
    moving materials enter the product, so each gets the same bits as on
    its own. ``sweeps`` is the largest per-material count and ``halvings``
    the total over all materials; ``converged`` holds only if every
    material converged (non-convergence is reported, not raised). The
    free-energy trace sums the per-material free energies, a stopped
    material held at its final value.
    """
    coupling = graph._coupling
    coef, offset, const = _field_terms(graph)
    q = np.array(graph.unary.T, order="C")
    g = coupling.apply(coef, q)
    energy = _energies(q, g, offset, const)
    held = energy.copy()
    out = np.empty_like(q)
    sweeps = np.zeros(graph.n_materials, dtype=np.int64)
    converged = np.zeros(graph.n_materials, dtype=bool)
    step = np.full(graph.n_materials, 0.5)
    halvings = 0
    short = True  # whether some moving material steps less than the full update
    cols = np.arange(graph.n_materials)
    trace = [float(held.sum())]
    while True:
        moving = ~converged[cols] & (sweeps[cols] < max_iter)
        if not moving.all():
            out[:, cols[~moving]] = q[:, ~moving]
            cols, q, g, energy = cols[moving], q[:, moving], g[:, moving], energy[moving]
            coef, offset, const = coef[:, moving], offset[:, moving], const[moving]
            short = bool((step[cols] < 1.0).any())
        if not len(cols):
            break
        # expit is overflow-safe; the clip keeps saturated beliefs off exact
        # 0/1 so the entropy term stays finite
        fresh = expit(offset - g)
        new = np.clip(fresh, PROB_CLAMP, 1.0 - PROB_CLAMP)
        # max over a contiguous copy: the strided reduction costs several times more
        delta = np.abs(new - q).T.copy().max(axis=1, initial=0.0)
        if short:
            s = step[cols]
            new = np.clip((1.0 - s) * q + s * fresh, PROB_CLAMP, 1.0 - PROB_CLAMP)
        g_new = coupling.apply(coef, new)
        e_new = _energies(new, g_new, offset, const)
        if short or (e_new > energy).any():
            s = step[cols]
            halved = _backtrack(coupling, coef, offset, const, q, fresh, energy, s, new, g_new, e_new)
            step[cols] = np.where(halved, s, np.minimum(1.0, 2.0 * s))
            halvings += int(halved.sum())
            short = bool((step[cols] < 1.0).any())
        q, g, energy = new, g_new, e_new
        sweeps[cols] += 1
        # the full update moves a belief twice as far as the half step
        converged[cols] = delta < 2.0 * tol
        held[cols] = energy
        trace.append(float(held.sum()))
    q_out = np.ascontiguousarray(out.T)
    return Marginals(q_out, bool(converged.all()), int(sweeps.max(initial=0)), trace, halvings)


def _backtrack(coupling, coef, offset, const, q, fresh, energy, step, new, g_new, e_new) -> np.ndarray:
    """Halve the step of every material whose candidate beliefs ``new`` raise
    its free energy above ``energy`` by more than rounding, until none does
    or _MAX_HALVINGS times; one product re-scores all of them per halving.
    Updates ``step``, ``new``, its product ``g_new`` and the energies
    ``e_new`` in place, and returns how often each material halved."""
    halved = np.zeros(len(step), dtype=np.int64)
    for _ in range(_MAX_HALVINGS):
        up = np.flatnonzero(e_new - energy > _ROUNDING * np.abs(energy))
        if not len(up):
            break
        halved[up] += 1
        step[up] *= 0.5
        s = step[up]
        cand = np.clip((1.0 - s) * q[:, up] + s * fresh[:, up], PROB_CLAMP, 1.0 - PROB_CLAMP)
        g_up = coupling.apply(coef[:, up], cand)
        new[:, up], g_new[:, up] = cand, g_up
        e_new[up] = _energies(cand, g_up, offset[:, up], const[up])
    return halved


def free_energy(graph: CrfGraph, q: np.ndarray) -> float:
    """Variational free energy E_q[energy] - H(q) of factorized beliefs q."""
    q = np.clip(np.asarray(q, dtype=np.float64), PROB_CLAMP, 1.0 - PROB_CLAMP)
    q = np.array(q.reshape(graph.n_materials, graph.n_faces).T, order="C")
    coef, offset, const = _field_terms(graph)
    return float(_energies(q, graph._coupling.apply(coef, q), offset, const).sum())


def _pair_stats(graph: CrfGraph, values: np.ndarray) -> np.ndarray:
    """Per-row edge sums of k * [both 0], k * [both 1] and (1 - k) * [differ]
    for each family, as a (families, 3, rows) array.

    Rows of ``values`` are binary labelings or factorized beliefs (one
    row per material, or per enumerated assignment); for beliefs the
    indicators become their expectations q_a q_b and so on.
    """
    stats = []
    for f in FAMILIES:
        e, k = graph.edges[f], graph.coeffs[f]
        va, vb = values[:, e[:, 0]], values[:, e[:, 1]]
        both1 = va * vb
        both0 = (1.0 - va) * (1.0 - vb)
        differ = va * (1.0 - vb) + (1.0 - va) * vb
        stats.append((both0 @ k, both1 @ k, differ @ (1.0 - k)))
    return np.array(stats)


def _score_terms(graph: CrfGraph, values: np.ndarray, m=slice(None)):
    """The weight-free parts of the log score of each row of binary
    ``values``: its unary log-probability, and its _pair_stats.

    By default row i is material i's labeling; with an integer ``m`` every
    row is a labeling of material m, scored with its unaries.
    """
    u = graph.unary[m]
    unary = np.einsum("...f,...f->...", values, np.log(u))
    unary += np.einsum("...f,...f->...", 1.0 - values, np.log(1.0 - u))
    return unary, _pair_stats(graph, values)


def _log_scores(graph: CrfGraph, terms, m=slice(None)) -> np.ndarray:
    """Log unnormalized probability of each row from its _score_terms,
    under the graph's current weights (material m's, with an integer m)."""
    scores, stats = terms
    for t, (s00, s11, s01) in zip(graph.weights.tables[:, m], stats):
        scores = scores - (t[..., 0, 0] * s00 + t[..., 1, 1] * s11 + t[..., 0, 1] * s01)
    return scores


def assignment_scores(graph: CrfGraph, labels: np.ndarray) -> np.ndarray:
    """Per-material log of the unnormalized probability of a binary labeling."""
    labels = np.asarray(labels, dtype=np.float64).reshape(graph.n_materials, graph.n_faces)
    return _log_scores(graph, _score_terms(graph, labels))


def _enumerate_material(graph: CrfGraph, m: int):
    """Log unnormalized score of every joint assignment for one material;
    refuses graphs of more than 20 binary variables."""
    if graph.n_variables > _ORACLE_LIMIT:
        raise OracleSizeError(
            f"{graph.n_variables} variables exceed the enumeration limit of {_ORACLE_LIMIT}"
        )
    f = graph.n_faces
    bits = (np.arange(2**f, dtype=np.int64)[:, None] >> np.arange(f)) & 1
    bits = bits.astype(np.float64)
    return bits, _log_scores(graph, _score_terms(graph, bits, m), m)


def brute_force_marginals(graph: CrfGraph) -> Marginals:
    """Exact marginals by enumeration; refuses more than 20 binary variables."""
    q = np.empty_like(graph.unary)
    for m in range(graph.n_materials):
        bits, logp = _enumerate_material(graph, m)
        q[m] = np.exp(logp - logsumexp(logp)) @ bits
    return Marginals(q=q, converged=True, sweeps=0)


def exact_log_likelihood(graph: CrfGraph, labels: np.ndarray) -> float:
    """log P(labels) with the partition function computed by enumeration."""
    log_z = [logsumexp(_enumerate_material(graph, m)[1]) for m in range(graph.n_materials)]
    return float(np.sum(assignment_scores(graph, labels) - log_z))


@dataclass
class PredictedLabels:
    """Per-face argmax material plus the thresholded multi-label sets."""

    top1: np.ndarray
    label_sets: list[tuple[int, ...]]


def predict_labels(marginals: Marginals, threshold: float = CrfConfig.label_threshold) -> PredictedLabels:
    """argmax material per face; label set = {m : q >= threshold} or the argmax.

    Ties take the lowest material index.
    """
    q = marginals.q
    top1 = np.argmax(q, axis=0)
    sets = [tuple(np.flatnonzero(above).tolist()) or (int(m),) for above, m in zip(q.T >= threshold, top1)]
    return PredictedLabels(top1=top1.astype(np.int64), label_sets=sets)


def crf_gradient(graph: CrfGraph, max_iter: int = CrfConfig.infer_iter, tol: float = CrfConfig.infer_tol):
    """(data - model) gradient of log P(truth) wrt the graph's weight tables.

    The log score is linear in the tables, so the gradient is the model's
    pair statistics minus the truth's, laid out like the tables. The model
    expectation uses mean-field marginals with pairwise terms factorized as
    q_a * q_b. Returns (gradient, approximate log-likelihood); the
    likelihood approximates log Z by the negative final free energy.
    """
    if graph.truth is None:
        raise MissingDataError("training graph lacks ground-truth labels")
    marg = mean_field_infer(graph, max_iter=max_iter, tol=tol)
    s00, s11, s01 = (_pair_stats(graph, marg.q) - graph._truth_terms[1]).transpose(1, 0, 2)
    gradient = np.stack([s00, s01, s01, s11], axis=-1).reshape(graph.weights.tables.shape)
    approx_ll = float(_log_scores(graph, graph._truth_terms).sum() + marg.free_energy[-1])
    return gradient, approx_ll


def train_crf(
    dataset: list[CrfGraph],
    init: CrfWeights | None = None,
    lr: float = CrfConfig.lr,
    iters: int = CrfConfig.iters,
    infer_iter: int = CrfConfig.infer_iter,
    infer_tol: float = CrfConfig.infer_tol,
) -> tuple[CrfWeights, list[float]]:
    """Gradient ascent on the dataset-mean approximate log-likelihood.

    All graphs share one weight object. Its tables start at ones unless
    given, take one step along the dataset-mean gradient per iteration, and
    are projected to symmetric and nonnegative after every step. The trace
    holds the mean approximate log-likelihood evaluated before each step.
    """
    if not dataset:
        raise MissingDataError("no training graphs")
    for g in dataset:
        if g.truth is None:
            raise MissingDataError("training graph lacks ground-truth labels")
    weights = init.copy() if init is not None else CrfWeights.ones(dataset[0].materials)
    trace = []
    for _ in range(iters):
        acc = np.zeros_like(weights.tables)
        ll = 0.0
        for g in dataset:
            g.weights = weights
            grad, g_ll = crf_gradient(g, max_iter=infer_iter, tol=infer_tol)
            acc += grad
            ll += g_ll
        trace.append(ll / len(dataset))
        weights.tables += lr * acc / len(dataset)
        weights.project()
    for g in dataset:
        g.weights = weights
    return weights, trace


def save_sample_probs(path: str, probs: np.ndarray) -> None:
    """JSON-lines {sample_index, probs: {material: p}} per sample."""
    write_jsonl(path, (
        {"sample_index": i, "probs": {name: float(p) for name, p in zip(MATERIALS, row)}}
        for i, row in enumerate(probs)
    ))


def _per_material(values: dict) -> list:
    """The values of a {material: number in [0, 1]} record, in material order."""
    row = [values.get(name) for name in MATERIALS]
    if len(values) != len(row) or None in row:
        raise ValueError(f"expected a value for each of {list(MATERIALS)}, got {list(values)}")
    return list(map(unit, row))


def load_sample_probs(path: str) -> np.ndarray:
    """Read sample probability lines back as an (n, materials) array.

    Sample indices must be exactly 0..n-1, and every material needs a
    probability that is a finite number in [0, 1]; anything else raises
    InterchangeError naming the file (and the line, where there is one).
    """
    fields = {"sample_index": int, "probs": (dict, _per_material)}
    rows = [rec["probs"] for rec in read_jsonl(path, fields, index="sample_index")]
    if not rows:
        raise MissingUnariesError(f"no unary records in {path}")
    return np.array(rows, dtype=np.float64)


def save_face_predictions(path: str, marginals: Marginals, predictions: PredictedLabels) -> None:
    """JSON-lines {face, top1, label_set, marginals} per face."""
    q = marginals.q
    write_jsonl(path, (
        {
            "face": f,
            "top1": MATERIALS[int(predictions.top1[f])],
            "label_set": [MATERIALS[m] for m in predictions.label_sets[f]],
            "marginals": {name: float(q[k, f]) for k, name in enumerate(MATERIALS)},
        }
        for f in range(q.shape[1])
    ))


def load_face_predictions(path: str):
    """Read prediction lines back as (top1 indices, label-set index tuples, q).

    Faces must run exactly over 0..n-1, names must be MATERIALS and
    marginals in [0, 1], else InterchangeError names the file (and the line).
    """
    fields = {
        "face": int,
        "top1": (str, lambda name: material_indices([name])[0]),
        "label_set": (list, material_indices),
        "marginals": (dict, _per_material),
    }
    rows = list(read_jsonl(path, fields, index="face"))
    top1 = np.array([rec["top1"] for rec in rows], dtype=np.int64)
    q = np.array([rec["marginals"] for rec in rows], dtype=np.float64)
    return top1, [rec["label_set"] for rec in rows], q.reshape(len(rows), NUM_MATERIALS).T
