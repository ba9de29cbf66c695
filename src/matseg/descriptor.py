"""Point features, the descriptor network, and its multi-task training.

Geometric statistics at three radii stand in for rendered views; a small
dense net maps them to a descriptor and per-material sigmoid
probabilities. Training is Siamese: both ends of every pair go through the
same weights, with a multi-label cross-entropy term on the sigmoid head
and a contrastive term on L2-normalized descriptors. All gradients are
hand-derived and checked against finite differences in the tests.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .bvh import TriangleBvh
from .config import FEATURE_DIM, LAMBDA_PRESETS, DescriptorConfig
from .errors import InterchangeError, MissingDataError
from .jsonl import finite_array, one_of, read_json, write_json
from .materials import NUM_MATERIALS
from .mesh import UPRIGHT_AXIS, LabeledMesh
from .sampling import Samples

FEATURE_RADII = (0.25, 0.5, 1.0)
_ADAM_B1 = 0.9
_ADAM_B2 = 0.999
_ADAM_EPS = 1e-8
_THICKNESS_CONE = 4
_NET_FORMAT = "descriptor-net-v1"
_PER_RADIUS = 17
_BLOCK_PAIRS = 32768
# the second-moment matrix's upper triangle, and where each of its nine
# entries finds its sum among them
_UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_SECOND = [0, 1, 2, 1, 3, 4, 2, 4, 5]


def extract_features(mesh: LabeledMesh, samples: Samples) -> np.ndarray:
    """64-dim feature vectors of the samples, one row each.

    Per radius (0.25/0.5/1.0 of the bounding radius): neighbor density,
    covariance eigen statistics, a 4-bin histogram of normal deviation
    angles, and first-order shape moments. Globally: height, radial
    placement, normal orientation, inward-ray thickness, and component
    size statistics. Empty neighborhoods contribute zeros.
    """
    if not samples:
        return np.zeros((0, FEATURE_DIM))
    pos = samples.positions
    normals = mesh.face_normals[samples.faces]
    radius = mesh.bounding_radius
    center = mesh.bounding_center
    tree = cKDTree(pos)
    n = len(samples)
    out = np.zeros((n, FEATURE_DIM))

    for ri, frac in enumerate(FEATURE_RADII):
        base = ri * _PER_RADIUS
        out[:, base : base + _PER_RADIUS] = _neighborhood_stats(tree, pos, normals, frac * radius)

    g = 3 * _PER_RADIUS
    min_y = float(mesh.vertices[:, 1].min())
    out[:, g + 0] = (pos[:, 1] - min_y) / (2.0 * radius)
    out[:, g + 1] = (pos[:, 1] - center[1]) / radius
    out[:, g + 2] = np.linalg.norm(pos[:, [0, 2]] - center[[0, 2]], axis=1) / radius
    out[:, g + 3] = (radius - np.linalg.norm(pos - center, axis=1)) / radius
    out[:, g + 4] = normals[:, 1]
    out[:, g + 5] = np.abs(normals[:, 1])
    out[:, g + 6], out[:, g + 7] = _thickness(TriangleBvh(mesh.vertices, mesh.faces), pos, normals, radius)

    total_area = mesh.total_area()
    comp_area = np.zeros(mesh.n_components)
    comp_count = np.zeros(mesh.n_components)
    centroids = mesh.face_centroids()
    comp_centroid = np.zeros((mesh.n_components, 3))
    comp_lo = np.zeros((mesh.n_components, 3))
    comp_hi = np.zeros((mesh.n_components, 3))
    for c in range(mesh.n_components):
        faces = mesh.component_faces(c)
        w = mesh.face_areas[faces]
        comp_area[c] = w.sum()
        comp_count[c] = len(faces)
        if comp_area[c] > 0:
            comp_centroid[c] = (centroids[faces] * w[:, None]).sum(axis=0) / comp_area[c]
        verts = mesh.vertices[np.unique(mesh.faces[faces])]
        comp_lo[c] = verts.min(axis=0)
        comp_hi[c] = verts.max(axis=0)

    comp = mesh.face_component[samples.faces]
    out[:, g + 8] = comp_area[comp] / total_area
    out[:, g + 9] = comp_count[comp] / mesh.n_faces
    out[:, g + 10] = np.linalg.norm(pos - comp_centroid[comp], axis=1) / radius
    diag = np.linalg.norm(comp_hi - comp_lo, axis=1)
    out[:, g + 11] = diag[comp] / (2.0 * radius)
    out[:, g + 12] = (comp_hi[:, 1] - comp_lo[:, 1])[comp] / (2.0 * radius)
    return out


def _neighborhood_stats(tree, pos, normals, rr: float) -> np.ndarray:
    """The 17 per-radius features of every sample, from the other samples
    within ``rr`` of it.

    Each pair of samples within ``rr`` is found once and adds to the sums of
    both its ends, one ``bincount`` per sum; pairs go in blocks of
    ``_BLOCK_PAIRS`` so memory stays bounded at the largest radius. The
    statistics then come from the sums for all samples at once.
    """
    n = len(pos)
    edges = np.linspace(0.0, np.pi, 5)  # the edges of np.histogram(bins=4, range=(0, pi))
    pairs = tree.query_pairs(rr, output_type="ndarray")
    count = np.zeros(n)
    hist = np.zeros(4 * n)
    # per sample: the six second moments of _UPPER, |cos|, |rel|^2, rel, rel . normal
    sums = np.zeros((12, n))
    for start in range(0, len(pairs), _BLOCK_PAIRS):
        a, b = pairs[start : start + _BLOCK_PAIRS].T
        rel = pos[b] - pos[a]  # seen from a; seen from b it is -rel
        cos = np.clip(np.einsum("ij,ij->i", normals[a], normals[b]), -1.0, 1.0)
        both = [rel[:, p] * rel[:, q] for p, q in _UPPER] + [np.abs(cos), np.einsum("ij,ij->i", rel, rel)]
        at_a = both + list(rel.T) + [np.einsum("ij,ij->i", rel, normals[a])]
        at_b = both + list(-rel.T) + [-np.einsum("ij,ij->i", rel, normals[b])]
        for k, (wa, wb) in enumerate(zip(at_a, at_b)):
            sums[k] += np.bincount(a, wa, minlength=n) + np.bincount(b, wb, minlength=n)
        count += np.bincount(a, minlength=n) + np.bincount(b, minlength=n)
        bins = np.minimum(np.searchsorted(edges, np.arccos(cos), side="right") - 1, 3)
        hist += np.bincount(4 * a + bins, minlength=4 * n) + np.bincount(4 * b + bins, minlength=4 * n)

    out = np.zeros((n, _PER_RADIUS))
    out[:, 0] = count / n
    has = count > 0  # an empty neighborhood keeps zeros
    m = count[has]
    mean = sums[:, has] / m
    ev = np.maximum(np.linalg.eigvalsh(mean[_SECOND].T.reshape(-1, 3, 3))[:, ::-1], 0.0)
    spread = np.zeros((len(ev), 8))
    total = ev.sum(axis=1)
    some = total > 0.0
    spread[some, 0:3] = ev[some] / total[some, None]
    some = ev[:, 0] > 0.0
    e0, e1, e2 = ev[some].T
    spread[some, 3:8] = np.stack([e1, e2, e0 - e1, e1 - e2, e0 - e2], axis=1) / e0[:, None]
    out[has, 1:9] = spread
    out[has, 9:13] = hist.reshape(n, 4)[has] / m[:, None]
    out[has, 13] = mean[6]
    out[has, 14] = np.linalg.norm(mean[8:11], axis=0) / rr
    out[has, 15] = np.sqrt(mean[7]) / rr
    out[has, 16] = mean[11] / rr
    return out


def _thickness(bvh, pos, normals, radius) -> tuple[np.ndarray, np.ndarray]:
    """Normalized distance of an inward ray, and the mean over a small inward
    cone of rays, to the opposite wall; misses read as the full 2R cap.

    All rays go to the BVH in one query."""
    cap = 2.0 * radius
    origins = pos - 1e-5 * radius * normals
    dirs = [-normals]
    for k in range(_THICKNESS_CONE):
        side = np.cross(normals, UPRIGHT_AXIS + 1e-3 * (k + 1))
        nrm = np.linalg.norm(side, axis=1, keepdims=True)
        side = np.where(nrm > 1e-9, side / np.maximum(nrm, 1e-12), 0.0)
        angle = 2.0 * np.pi * k / _THICKNESS_CONE
        tilt = 0.3
        cone = -normals + tilt * (np.cos(angle) * side + np.sin(angle) * np.cross(normals, side))
        dirs.append(cone / np.linalg.norm(cone, axis=1, keepdims=True))
    t = bvh.first_hit(np.tile(origins, (len(dirs), 1)), np.vstack(dirs), t_min=1e-9 * radius)
    depth = np.minimum(np.where(np.isfinite(t), t, cap), cap).reshape(len(dirs), len(pos))
    return depth[0] / cap, depth[1:].sum(axis=0) / (_THICKNESS_CONE * cap)


# the benchmark harness imports label_matrix (bench/workloads.py)
def label_matrix(samples: Samples) -> np.ndarray:
    """Multi-hot (S, M) ground-truth matrix of the samples."""
    return samples.labels


class DescriptorNet:
    """Dense net 64->128->64->descriptor with a sigmoid material head.

    tanh on the two hidden layers; the descriptor layer is linear. The head
    reads the raw descriptor; retrieval and the contrastive loss use the
    L2-normalized descriptor.
    """

    def __init__(self, layer_sizes=DescriptorConfig.layer_sizes, n_classes: int = NUM_MATERIALS, seed: int = 0):
        self.layer_sizes = tuple(layer_sizes)
        self.n_classes = n_classes
        rng = np.random.default_rng(seed)
        self.params: dict[str, np.ndarray] = {}
        dims = list(self.layer_sizes) + [n_classes]
        names = ["1", "2", "3", "h"]
        for k in range(4):
            fan_in, fan_out = dims[k], dims[k + 1]
            lim = math.sqrt(6.0 / (fan_in + fan_out))
            self.params[f"W{names[k]}"] = rng.uniform(-lim, lim, size=(fan_in, fan_out))
            self.params[f"b{names[k]}"] = np.zeros(fan_out)

    def forward(self, x: np.ndarray) -> dict[str, np.ndarray]:
        p = self.params
        x = np.asarray(x, dtype=np.float64).reshape(-1, self.layer_sizes[0])
        h1 = np.tanh(x @ p["W1"] + p["b1"])
        h2 = np.tanh(h1 @ p["W2"] + p["b2"])
        desc = h2 @ p["W3"] + p["b3"]
        logits = desc @ p["Wh"] + p["bh"]
        probs = 1.0 / (1.0 + np.exp(-logits))
        norms = np.maximum(np.linalg.norm(desc, axis=1, keepdims=True), 1e-12)
        return {
            "x": x,
            "h1": h1,
            "h2": h2,
            "desc": desc,
            "norms": norms,
            "unit": desc / norms,
            "logits": logits,
            "probs": probs,
        }

    def backward(self, cache: dict, d_desc: np.ndarray, d_logits: np.ndarray) -> dict:
        """Backprop given upstream gradients on the raw descriptor and logits."""
        p = self.params
        grads = {}
        grads["Wh"] = cache["desc"].T @ d_logits
        grads["bh"] = d_logits.sum(axis=0)
        dd = d_desc + d_logits @ p["Wh"].T
        grads["W3"] = cache["h2"].T @ dd
        grads["b3"] = dd.sum(axis=0)
        dh2 = (dd @ p["W3"].T) * (1.0 - cache["h2"] ** 2)
        grads["W2"] = cache["h1"].T @ dh2
        grads["b2"] = dh2.sum(axis=0)
        dh1 = (dh2 @ p["W2"].T) * (1.0 - cache["h1"] ** 2)
        grads["W1"] = cache["x"].T @ dh1
        grads["b1"] = dh1.sum(axis=0)
        return grads

    def save(self, path: str) -> None:
        """Write the net as JSON: every parameter array flattened, in name order."""
        write_json(path, {
            "format": _NET_FORMAT,
            "layer_sizes": list(self.layer_sizes),
            "n_classes": self.n_classes,
            "params": np.concatenate([self.params[k].ravel() for k in sorted(self.params)]).tolist(),
        })

    @classmethod
    def load(cls, path: str) -> "DescriptorNet":
        """Read a net written by save; a wrong format, layer sizes or parameter
        count, or a net that does not read FEATURE_DIM features into
        NUM_MATERIALS classes, raises InterchangeError."""
        fields = {"format": (str, one_of(_NET_FORMAT)), "layer_sizes": list, "n_classes": int,
                  "params": (list, finite_array)}
        doc = read_json(path, fields)
        sizes, n_classes, flat = doc["layer_sizes"], doc["n_classes"], doc["params"]
        dims = [*sizes, n_classes]  # input, two hidden, descriptor; then the head
        fits = len(dims) == 5 and all(type(n) is int and n > 0 for n in dims)
        if not fits or len(flat) != sum(a * b + b for a, b in zip(dims, dims[1:])):
            raise InterchangeError(
                path, f"layer sizes {sizes} and {n_classes} classes do not fit {len(flat)} params")
        if dims[0] != FEATURE_DIM or n_classes != NUM_MATERIALS:
            raise InterchangeError(
                path, f"a net from {dims[0]} features to {n_classes} classes; "
                f"expected {FEATURE_DIM} features and {NUM_MATERIALS} classes")
        net = cls(sizes, n_classes)
        at = 0
        for name in sorted(net.params):
            size = net.params[name].size
            net.params[name] = flat[at : at + size].reshape(net.params[name].shape)
            at += size
        return net


@dataclass
class PairBatch:
    """Feature/label arrays for P sample pairs plus which are positive."""

    xa: np.ndarray
    xb: np.ndarray
    ya: np.ndarray
    yb: np.ndarray
    positive: np.ndarray
    combos: list[tuple[int, int]]

    def __len__(self) -> int:
        return len(self.positive)


class PairSampler:
    """Draws pairs at a 1:4 positive:negative ratio with combination cycling.

    Every fifth slot is a positive and cycles the same-material combinations
    (k, k); the rest are negatives and cycle the distinct-material
    combinations (a, b), a < b; cycling carries on across calls. With the
    samples grouped by label set, a combination's valid ordered pairs from
    sets u and v number n_u * n_v (less n_u when u = v) if both hold k, and
    n_u * n_v if u holds a, v holds b and the two share no label; only
    combinations with a valid pair are cycled. One generator call per batch
    draws each pair's index among its combination's valid pairs, uniformly;
    the cumulative cell counts turn it into (u, v) and one member of each,
    the second skipping the first when u = v. Slots of a kind that has no
    combination to cycle are counted in ``skipped``.
    """

    def __init__(self, features: np.ndarray, labels: np.ndarray, seed: int = 0):
        self.features = np.asarray(features, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.float64)
        m = self.labels.shape[1]
        self.rng = np.random.default_rng(seed)
        sets, of = np.unique(self.labels > 0, axis=0, return_inverse=True)
        self._size = np.bincount(of, minlength=len(sets))
        self._start = np.cumsum(self._size) - self._size
        self._members = np.argsort(of, kind="stable")  # the samples of each set, set by set
        self._combos = [(k, k) for k in range(m)] + [(a, b) for a in range(m) for b in range(a + 1, m)]
        a, b = np.array(self._combos, dtype=np.int64).reshape(-1, 2).T
        # cells[c, u, v]: valid ordered pairs of combination c from sets u and v,
        # out of the ordered pairs of distinct samples
        held = sets[:, a].T[:, :, None] & sets[:, b].T[:, None, :]
        pairs = np.outer(self._size, self._size) - np.diag(self._size)
        cells = (held & ((a == b)[:, None, None] | ~(sets @ sets.T))) * pairs
        self._shape = cells.shape
        self._total = cells.sum(axis=(1, 2))
        self._first = np.cumsum(self._total) - self._total  # pairs of all earlier combinations
        self._before = np.cumsum(cells.ravel()) - cells.ravel()  # pairs in all earlier cells
        self._cycles = (np.flatnonzero(self._total[:m]), m + np.flatnonzero(self._total[m:]))
        self.pos_combos = [self._combos[c] for c in self._cycles[0]]
        self.neg_combos = [self._combos[c] for c in self._cycles[1]]
        self._at = [0, 0]
        self.skipped = 0

    def draw(self, n_pairs: int) -> PairBatch:
        positive = np.arange(n_pairs) % 5 == 0
        combo = np.full(n_pairs, -1, dtype=np.int64)
        for kind, slots in enumerate((positive, ~positive)):
            cycle, n = self._cycles[kind], int(slots.sum())
            if len(cycle):
                combo[slots] = cycle[(self._at[kind] + np.arange(n)) % len(cycle)]
                self._at[kind] += n
            else:
                self.skipped += n
        positive, combo = positive[combo >= 0], combo[combo >= 0]
        # t: the pair's index among all valid pairs, combination after combination
        t = self._first[combo] + self.rng.integers(0, self._total[combo])
        cell = np.searchsorted(self._before, t, side="right") - 1
        _, u, v = np.unravel_index(cell, self._shape)
        same = u == v
        i, j = np.divmod(t - self._before[cell], self._size[v] - same)
        ia = self._members[self._start[u] + i]
        ib = self._members[self._start[v] + j + (same & (j >= i))]
        return PairBatch(xa=self.features[ia], xb=self.features[ib], ya=self.labels[ia], yb=self.labels[ib],
                         positive=positive, combos=[self._combos[c] for c in combo.tolist()])


def sample_pairs(features: np.ndarray, labels: np.ndarray, n_pairs: int, seed: int) -> PairBatch:
    return PairSampler(features, labels, seed).draw(n_pairs)


def multitask_loss(
    net: DescriptorNet,
    batch: PairBatch,
    lambda_class: float,
    lambda_contr: float,
    margin: float = DescriptorConfig.margin,
) -> tuple[float, dict[str, np.ndarray], dict[str, float]]:
    """Loss and analytic parameter gradients for one Siamese batch.

    The class term is the summed multi-label binary cross-entropy over both
    pair sides; the contrastive term is sum of squared descriptor distances
    on positives and squared hinge max(margin - D, 0)^2 on negatives, with
    D the distance between unit descriptors. Returns (loss, grads, parts).
    """
    if len(batch) == 0:
        raise MissingDataError("empty pair batch")
    p = len(batch)
    x = np.vstack([batch.xa, batch.xb])
    t = np.vstack([batch.ya, batch.yb])
    cache = net.forward(x)

    probs = np.clip(cache["probs"], 1e-12, 1.0 - 1e-12)
    class_term = float(-(t * np.log(probs) + (1.0 - t) * np.log(1.0 - probs)).sum())
    d_logits = lambda_class * (cache["probs"] - t)

    unit = cache["unit"]
    diff = unit[:p] - unit[p:]
    dist = np.linalg.norm(diff, axis=1)
    pos = batch.positive
    hinge = np.maximum(margin - dist, 0.0)
    contr_term = float((dist[pos] ** 2).sum() + (hinge[~pos] ** 2).sum())

    d_unit_a = np.zeros_like(diff)
    d_unit_a[pos] = 2.0 * diff[pos]
    active = (~pos) & (hinge > 0.0) & (dist > 1e-12)
    d_unit_a[active] = (-2.0 * hinge[active] / dist[active])[:, None] * diff[active]
    d_unit = lambda_contr * np.vstack([d_unit_a, -d_unit_a])

    # through u = v / ||v||: dv = (du - (du . u) u) / ||v||
    inner = (d_unit * unit).sum(axis=1, keepdims=True)
    d_desc = (d_unit - inner * unit) / cache["norms"]

    grads = net.backward(cache, d_desc, d_logits)
    loss = lambda_class * class_term + lambda_contr * contr_term
    parts = {"class": class_term, "contrastive": contr_term, "total": loss}
    return loss, grads, parts


class _Adam:
    def __init__(self, params: dict[str, np.ndarray], lr: float):
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        for k in params:
            g = grads[k]
            self.m[k] = _ADAM_B1 * self.m[k] + (1.0 - _ADAM_B1) * g
            self.v[k] = _ADAM_B2 * self.v[k] + (1.0 - _ADAM_B2) * g * g
            mhat = self.m[k] / (1.0 - _ADAM_B1**self.t)
            vhat = self.v[k] / (1.0 - _ADAM_B2**self.t)
            params[k] -= self.lr * mhat / (np.sqrt(vhat) + _ADAM_EPS)


def train_descriptor(
    features: np.ndarray,
    labels: np.ndarray,
    variant: str = DescriptorConfig.variant,
    epochs: int = DescriptorConfig.epochs,
    seed: int = 0,
    pairs_per_step: int = DescriptorConfig.pairs_per_step,
    steps_per_epoch: int = DescriptorConfig.steps_per_epoch,
    lr: float = DescriptorConfig.lr,
    layer_sizes=DescriptorConfig.layer_sizes,
    margin: float = DescriptorConfig.margin,
) -> tuple[DescriptorNet, list[dict[str, float]]]:
    """Siamese training with adaptive-moment updates; deterministic per seed.

    ``variant`` selects the loss mix: multitask (0.016 class / 1.0
    contrastive) or classification (1.0 / 0.0). In the multitask mix the
    classification head's gradients are rescaled by 1/lambda_class,
    mirroring a per-layer learning-rate multiplier. Returns the net and a
    per-epoch trace of loss parts. Warns once with the number of pair slots
    skipped because their kind, positive or negative, has no combination.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if len(features) == 0:
        raise MissingDataError("no training samples")
    if variant not in LAMBDA_PRESETS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {sorted(LAMBDA_PRESETS)}")
    lambda_class, lambda_contr = LAMBDA_PRESETS[variant]
    head_scale = 1.0 / lambda_class if variant == "multitask" and lambda_class > 0 else 1.0

    net = DescriptorNet(layer_sizes=layer_sizes, n_classes=labels.shape[1], seed=seed)
    sampler = PairSampler(features, labels, seed=seed + 1)
    adam = _Adam(net.params, lr)
    trace = []
    for _ in range(epochs):
        totals = {"class": 0.0, "contrastive": 0.0, "total": 0.0}
        for _ in range(steps_per_epoch):
            batch = sampler.draw(pairs_per_step)
            _, grads, parts = multitask_loss(net, batch, lambda_class, lambda_contr, margin)
            grads["Wh"] = grads["Wh"] * head_scale
            grads["bh"] = grads["bh"] * head_scale
            adam.step(net.params, grads)
            for k in totals:
                totals[k] += parts[k]
        trace.append({k: v / steps_per_epoch for k, v in totals.items()})
    if sampler.skipped:
        warnings.warn(
            f"skipped {sampler.skipped} of {epochs * steps_per_epoch * pairs_per_step} "
            "pair draws: their material combination has no valid pair",
            stacklevel=2,
        )
    return net, trace


def predict_probs(net: DescriptorNet, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sigmoid material probabilities and unit retrieval descriptors."""
    cache = net.forward(np.atleast_2d(features))
    return cache["probs"], cache["unit"]
