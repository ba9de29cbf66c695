"""The three workloads: set-up, one timed round, and the checks on its outputs.

Each workload object is built once per process. ``setup()`` may run
several times (set-up time is reported as a median); ``run_round()`` times
one whole round of operations, then checks every output and returns a
``Round``. Calls into matseg go through ``self.tr.span`` so a traced run
can split the time by layer.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

import checks
import fault_case
import shapes
from matseg import cli
from matseg.crf import (
    CrfWeights,
    build_crf,
    load_sample_probs,
    mean_field_infer,
    predict_labels,
    train_crf,
)
from matseg.descriptor import extract_features, label_matrix, predict_probs, train_descriptor
from matseg.geodesics import geodesic_pairs, load_distance_pairs
from matseg.materials import MATERIALS
from matseg.mesh import compute_adjacency, load_obj, save_labels, save_obj
from matseg.sampling import (
    load_samples,
    positions_of,
    sample_surface_points,
    subsample_even,
    visibility_filter,
)
from matseg.symmetry import (
    detect_symmetries,
    load_symmetry_pairs,
    save_symmetry_pairs,
    symmetry_pairs,
)
from matseg.synth import benchmark_suite, corrupt_unaries, generate

MATS = list(MATERIALS)
DRAWN, KEPT = 150, 75
NOISE = 0.25  # criterion-7 unary noise
RMSD_GATE = 0.02  # SymmetryConfig.rmsd_threshold default
GEODESIC_RADIUS = 0.1  # GeodesicConfig.radius_fraction default
LABEL_CRF_ITERS = 3
TRAIN_CRF_ITERS = 10
DENSE_DRAWN, DENSE_KEPT = 1500, 750
DENSE_CRF_ITERS = 3


@dataclass
class Round:
    wall: float
    label_times: list[float] = field(default_factory=list)
    train_time: float | None = None
    attempted: int = 0
    failed: int = 0
    unexpected: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    quality: dict = field(default_factory=dict)

    def op(self, problems: list[str], what: str, known_fault: bool = False) -> None:
        """Count one operation; it failed if any of its checks did. Only the
        fault named in fault_case.py may fail without making the run incorrect."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.unexpected += not known_fault
            self.problems.extend(f"{what}: {p}" for p in problems)


def noise_seed(index: int) -> int:
    # fixed per shape, as in acceptance criterion 7: the sweep count of
    # mean field swings with the noise draw (train_crf took 10 s to 18 s
    # across run seeds when it followed the run seed)
    return 1000 + index


# --- steps shared by the in-process workloads and fault_case --------------


def generate_shapes(tr, seed: int, indices) -> list:
    specs = benchmark_suite()
    out = []
    for i in indices:
        spec = shapes.jittered(specs[i], seed, i)
        with tr.span("synth.generate"):
            mesh = generate(spec)
        out.append((i, spec, mesh))
    return out


def sample(tr, mesh, seed: int, drawn: int = DRAWN, kept: int = KEPT):
    with tr.span("sampling.sample_surface_points"):
        drawn_s = sample_surface_points(mesh, drawn, seed=seed)
    with tr.span("sampling.visibility_filter"):
        visible = visibility_filter(mesh, drawn_s)
    with tr.span("sampling.subsample_even"):
        kept_s = subsample_even(visible, min(kept, len(visible)), seed=seed)
    tr.count("sampling.drawn", len(drawn_s))
    tr.count("sampling.visible", len(visible))
    tr.count("sampling.kept", len(kept_s))
    return kept_s


def features(tr, mesh, samples):
    with tr.span("descriptor.extract_features"):
        return extract_features(mesh, samples)


def pair_factors(tr, mesh, syms):
    """Adjacency, geodesic pairs and symmetry face pairs of one mesh."""
    with tr.span("mesh.compute_adjacency"):
        adj = compute_adjacency(mesh)
    tr.count("mesh.faces", mesh.n_faces)
    with tr.span("geodesics.geodesic_pairs"):
        dist = geodesic_pairs(mesh, adj)
    tr.count("geodesics.pairs", len(dist))
    with tr.span("symmetry.symmetry_pairs"):
        spairs = symmetry_pairs(mesh, syms)
    tr.count("symmetry.face_pairs", len(spairs))
    return adj, dist, spairs


def infer(tr, graph):
    with tr.span("crf.mean_field_infer"):
        marg = mean_field_infer(graph)
    tr.count("crf.infers")
    tr.count("crf.sweeps", marg.sweeps)
    tr.count("crf.converged", int(marg.converged))
    tr.count("crf.capped_infers", int(not marg.converged))
    return marg


def train(tr, graphs, iters: int):
    with tr.span("crf.train_crf"):
        weights, _ = train_crf(graphs, iters=iters)
    tr.count("crf.gradient_evals", len(graphs) * iters)
    return weights


def train_net(tr, feats, samples, seed: int):
    truth = np.vstack([label_matrix(s) for s in samples])
    with tr.span("descriptor.train_descriptor"):
        net, _ = train_descriptor(np.vstack(feats), truth, seed=seed)
    return net


def truth_graph(tr, index: int, spec, mesh):
    """Criterion-7 graph: noisy truth unaries plus the three factor families."""
    truth = shapes.truth_matrix(mesh, MATS)
    syms = shapes.builtin_symmetries(mesh, spec.category)
    adj, dist, spairs = pair_factors(tr, mesh, syms)
    with tr.span("synth.corrupt_unaries"):
        probs = corrupt_unaries(truth.T, NOISE, seed=noise_seed(index))
    with tr.span("crf.build_crf"):
        graph = build_crf(mesh, mesh.face_centroids(), probs, adj, dist, spairs, truth=truth)
    return graph, shapes.leg_pairs(mesh, spairs)


def label_shape(tr, mesh, seed: int, net, weights):
    """The paper's use: label a new shape from scratch. Returns its outputs."""
    kept = sample(tr, mesh, seed)
    feats = features(tr, mesh, kept)
    with tr.span("descriptor.predict_probs"):
        probs, _ = predict_probs(net, feats)
    with tr.span("symmetry.detect_symmetries"):
        syms = detect_symmetries(mesh, seed=seed)
    tr.count("symmetry.transforms", len({s.transform_id for s in syms}))
    adj, dist, spairs = pair_factors(tr, mesh, syms)
    with tr.span("crf.build_crf"):
        graph = build_crf(mesh, positions_of(kept), probs, adj, dist, spairs, weights=weights)
    marg = infer(tr, graph)
    with tr.span("crf.predict_labels"):
        labels = predict_labels(marg)
    return {"feats": feats, "syms": syms, "graph": graph, "marg": marg, "labels": labels}


def _top1_of(q, truth) -> float:
    return checks.top1(np.argmax(q, axis=0), truth)


# --- workloads -------------------------------------------------------------


class LabelSuite:
    """Label seven held-out shapes end to end, plus the fixed 2-cycle case."""

    def __init__(self, seed: int, tr, workdir: str):
        self.seed, self.tr = seed, tr

    def setup(self) -> float:
        """Generate shapes, train descriptor and CRF; returns training seconds."""
        tr, seed = self.tr, self.seed
        train_set = generate_shapes(tr, seed, shapes.LABEL_TRAIN)
        self.heldout = generate_shapes(tr, seed, shapes.LABEL_HELDOUT)
        samples = [sample(tr, mesh, spec.seed) for _, spec, mesh in train_set]
        feats = [features(tr, mesh, s) for (_, _, mesh), s in zip(train_set, samples)]
        graphs = [truth_graph(tr, i, spec, mesh)[0] for i, spec, mesh in train_set]
        t0 = time.perf_counter()
        self.net = train_net(tr, feats, samples, seed)
        self.weights = train(tr, graphs, LABEL_CRF_ITERS)
        train_time = time.perf_counter() - t0
        self.fault_graph = fault_case.load_graph()
        return train_time

    def run_round(self) -> Round:
        tr = self.tr
        outs = []
        t0 = time.perf_counter()
        for _, spec, mesh in self.heldout:
            s0 = time.perf_counter()
            with tr.span("bench.label_shape"):
                out = label_shape(tr, mesh, spec.seed, self.net, self.weights)
            outs.append((spec, mesh, out, time.perf_counter() - s0))
        with tr.span("bench.fault_case"):
            probe = infer(tr, self.fault_graph)
        rnd = Round(wall=time.perf_counter() - t0, label_times=[o[3] for o in outs])

        unary, smooth = [], []
        for spec, mesh, out, _ in outs:
            tol = checks.vertex_tolerance(shapes.JITTER, RMSD_GATE, mesh.bounding_radius)
            found = {s.transform_id: s.transform for s in out["syms"]}
            problems = []
            for t in found.values():
                problems += checks.maps_vertices(t.rotation, t.translation, mesh.vertices, tol)
            problems += checks.finds_builtin(
                [(t.rotation, t.translation) for t in found.values()],
                shapes.builtin_rotations(spec.category), mesh.vertices, tol,
            )
            problems += checks.labels_are_argmax(out["labels"].top1, out["marg"].q)
            problems += checks.features_valid(out["feats"])
            problems += checks.free_energy_descends(out["marg"].free_energy)
            rnd.op(problems, f"label {spec.category} seed {spec.seed}")
            truth = shapes.truth_matrix(mesh, MATS)
            unary.append(_top1_of(out["graph"].unary, truth))
            smooth.append(checks.top1(out["labels"].top1, truth))
        # the named mean-field fault: fails every round until the update is fixed
        rnd.op(checks.free_energy_descends(probe.free_energy), "fault case", known_fault=True)
        rnd.quality = {"unary_top1": float(np.mean(unary)), "smoothed_top1": float(np.mean(smooth))}
        return rnd


class TrainCrf:
    """Criterion-7 protocol: train CRF weights on twelve graphs, then label them."""

    def __init__(self, seed: int, tr, workdir: str):
        self.seed, self.tr = seed, tr

    def setup(self) -> None:
        self.items = []
        for i, spec, mesh in generate_shapes(self.tr, self.seed, shapes.TRAIN_CRF):
            graph, legs = truth_graph(self.tr, i, spec, mesh)
            self.items.append((spec, graph, legs))

    def run_round(self) -> Round:
        tr = self.tr
        graphs = [g for _, g, _ in self.items]
        t0 = time.perf_counter()
        with tr.span("bench.train"):
            weights = train(tr, graphs, TRAIN_CRF_ITERS)
        train_time = time.perf_counter() - t0
        outs = []
        s0 = time.perf_counter()
        for spec, graph, legs in self.items:
            with tr.span("bench.label_shape"):
                marg = infer(tr, dataclasses.replace(graph, weights=weights))
                with tr.span("crf.predict_labels"):
                    labels = predict_labels(marg)
            outs.append((spec, graph, legs, marg, labels))
        end = time.perf_counter()
        # one figure per round, the mean over its graphs: a single graph's
        # time is a few dozen sweeps and follows the seed's sweep counts
        rnd = Round(wall=end - t0, train_time=train_time,
                    label_times=[(end - s0) / len(outs)])

        gains, agree, pairs = [], 0, 0
        for spec, graph, legs, marg, labels in outs:
            problems = checks.labels_are_argmax(labels.top1, marg.q)
            problems += checks.free_energy_descends(marg.free_energy)
            rnd.op(problems, f"label {spec.category} seed {spec.seed}")
            gains.append(checks.top1(labels.top1, graph.truth)
                         - _top1_of(graph.unary, graph.truth))
            agree += sum(int(labels.top1[a] == labels.top1[b]) for a, b in legs)
            pairs += len(legs)
        rnd.op(checks.smoothing_bounds(gains, agree, pairs), "train_crf criterion 7")
        rnd.quality = {
            "mean_gain_pp": 100.0 * float(np.mean(gains)),
            "worst_gain_pp": 100.0 * float(np.min(gains)),
            "leg_agreement_pct": 100.0 * agree / max(pairs, 1),
        }
        return rnd


def _read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class DenseCli:
    """Subdivided shapes through the file-based CLI, every stage in-process."""

    def __init__(self, seed: int, tr, workdir: str):
        self.seed, self.tr = seed, tr
        self.root = os.path.join(workdir, "shapes")

    def setup(self) -> None:
        tr = self.tr
        shutil.rmtree(self.root, ignore_errors=True)
        os.makedirs(self.root)
        self.shapes = []
        for i, spec, mesh in generate_shapes(tr, self.seed, shapes.DENSE):
            for _ in range(shapes.DENSE_LEVELS):
                mesh = shapes.subdivide(mesh)
            d = os.path.join(self.root, f"s{i:02d}")
            os.makedirs(d)
            with tr.span("mesh.save_obj"):
                save_obj(os.path.join(d, cli.MESH_FILE), mesh)
            with tr.span("mesh.save_labels"):
                save_labels(os.path.join(d, cli.LABELS_FILE), mesh)
            with open(os.path.join(d, cli.TRUTH_FILE), "w", encoding="utf-8") as fh:
                for f in range(mesh.n_faces):
                    names = mesh.labels[mesh.face_component[f]].names()
                    fh.write(json.dumps({"face": f, "labels": list(names)}) + "\n")
            with tr.span("symmetry.symmetry_pairs"):
                spairs = symmetry_pairs(mesh, shapes.builtin_symmetries(mesh, spec.category))
            tr.count("symmetry.face_pairs", len(spairs))
            with tr.span("symmetry.save_symmetry_pairs"):
                save_symmetry_pairs(os.path.join(d, cli.SYMMETRY_PAIRS_FILE), spairs)
            self.shapes.append((spec, mesh, d))

    def _cli(self, codes: dict, name: str, target: str, argv: list[str], outputs: list[str]) -> float:
        """Run one CLI command in-process; returns its wall time."""
        t0 = time.perf_counter()
        with self.tr.span(f"cli.{name}"):
            codes[(name, target)] = cli.main([name, *argv])
        elapsed = time.perf_counter() - t0
        self.tr.count("cli.bytes_written",
                      sum(os.path.getsize(p) for p in outputs if os.path.exists(p)))
        return elapsed

    def run_round(self) -> Round:
        root = self.root
        net = os.path.join(root, cli.NET_FILE)
        weights = os.path.join(root, cli.WEIGHTS_FILE)
        codes: dict = {}
        label = {d: 0.0 for _, _, d in self.shapes}
        t0 = time.perf_counter()
        for spec, mesh, d in self.shapes:
            self.tr.count("mesh.faces", mesh.n_faces)
            label[d] += self._cli(codes, "sample", d, [
                "--shape", d, "-n", str(DENSE_DRAWN), "-k", str(DENSE_KEPT),
                "--seed", str(spec.seed)], [os.path.join(d, cli.SAMPLES_FILE)])
            label[d] += self._cli(codes, "geodesic", d, ["--shape", d],
                                  [os.path.join(d, cli.GEODESIC_FILE)])
        train_time = self._cli(codes, "train-desc", root,
                               ["--data", root, "--seed", str(self.seed)], [net])
        for _, _, d in self.shapes:
            label[d] += self._cli(codes, "predict", d, ["--shape", d, "--net", net],
                                  [os.path.join(d, cli.PROBS_FILE)])
        train_time += self._cli(codes, "train-crf", root, [
            "--data", root, "--set", f"crf.iters={DENSE_CRF_ITERS}"], [weights])
        for _, _, d in self.shapes:
            preds = os.path.join(d, cli.PREDICTIONS_FILE)
            report = os.path.join(d, cli.REPORT_FILE)
            label[d] += self._cli(codes, "infer", d, ["--shape", d, "--weights", weights], [preds])
            label[d] += self._cli(codes, "eval", d, [
                "--pred", preds, "--truth", os.path.join(d, cli.TRUTH_FILE), "--out", report],
                [report])
        rnd = Round(wall=time.perf_counter() - t0, train_time=train_time,
                    label_times=list(label.values()))
        self._check(rnd, codes)
        return rnd

    def _check(self, rnd: Round, codes: dict) -> None:
        def exited(name, target):
            code = codes[(name, target)]
            return [f"exit code {code}"] if code else []

        for name in ("train-desc", "train-crf"):
            rnd.op(exited(name, self.root), f"cli {name}")
        weights = None
        if not exited("train-crf", self.root):
            weights = CrfWeights.load(os.path.join(self.root, cli.WEIGHTS_FILE))
        unary, smooth = [], []
        for _, mesh, d in self.shapes:
            where = os.path.basename(d)
            truth = shapes.truth_matrix(mesh, MATS)
            samples = [] if exited("sample", d) else _read_jsonl(os.path.join(d, cli.SAMPLES_FILE))
            rnd.op(exited("sample", d) or checks.samples_on_faces(
                samples, mesh.vertices, mesh.faces, mesh.bounding_radius), f"cli sample {where}")
            rnd.op(exited("geodesic", d) or checks.distances_in_range(
                _read_jsonl(os.path.join(d, cli.GEODESIC_FILE)), GEODESIC_RADIUS),
                f"cli geodesic {where}")
            rnd.op(exited("predict", d) or checks.probs_valid(
                _read_jsonl(os.path.join(d, cli.PROBS_FILE)), len(samples), MATS),
                f"cli predict {where}")
            preds = [] if exited("infer", d) else _read_jsonl(os.path.join(d, cli.PREDICTIONS_FILE))
            problems = exited("infer", d) or checks.predictions_valid(preds, mesh.n_faces, MATS)
            rnd.op(problems, f"cli infer {where}")
            if not problems and weights is not None:
                # weights that train-crf learns from predicted unaries hit the
                # named mean-field fault on a seed-dependent subset of shapes,
                # so a rise is reported but cannot be counted steadily
                graph, marg = self._reinfer(d, weights)
                for p in checks.free_energy_descends(marg.free_energy):
                    rnd.notes.append(f"cli infer {where}: {p} (named mean-field fault, not counted)")
                unary.append(_top1_of(graph.unary, truth))
            problems = exited("eval", d)
            if not problems:
                if not preds:
                    problems = ["no predictions to score"]
                else:
                    with open(os.path.join(d, cli.REPORT_FILE), encoding="utf-8") as fh:
                        report = json.load(fh)
                    top1 = [MATS.index(p["top1"]) for p in preds]
                    problems = checks.report_matches(report, top1, truth, MATS)
                    smooth.append(checks.top1(top1, truth))
            rnd.op(problems, f"cli eval {where}")
        rnd.quality = {"unary_top1": float(np.mean(unary)) if unary else float("nan"),
                       "smoothed_top1": float(np.mean(smooth)) if smooth else float("nan")}

    @staticmethod
    def _reinfer(d: str, weights):
        """Rebuild a shape's CRF from its files and rerun inference, for the
        free-energy trace that predictions.jsonl does not carry."""
        mesh = load_obj(os.path.join(d, cli.MESH_FILE))
        samples = load_samples(os.path.join(d, cli.SAMPLES_FILE), mesh)
        graph = build_crf(
            mesh, positions_of(samples),
            load_sample_probs(os.path.join(d, cli.PROBS_FILE)),
            compute_adjacency(mesh),
            load_distance_pairs(os.path.join(d, cli.GEODESIC_FILE)),
            load_symmetry_pairs(os.path.join(d, cli.SYMMETRY_PAIRS_FILE)),
            weights=weights,
        )
        return graph, mean_field_infer(graph)


WORKLOADS = {"label-suite": LabelSuite, "train-crf": TrainCrf, "dense-cli": DenseCli}
