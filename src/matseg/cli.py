"""Pipeline subcommands with file-based interchange.

Stages communicate through files in a shape directory: synth writes
mesh.obj/labels.json, sample writes samples.jsonl, and so on, so any
stage can be rerun in isolation. Every run logs the seed and a hash of
the effective configuration; outputs carry no timestamps, so identical
config and seed produce byte-identical files.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from . import __version__
from .config import PipelineConfig, apply_items, load_config
from .crf import (
    CrfWeights,
    build_crf,
    load_face_predictions,
    load_sample_probs,
    mean_field_infer,
    predict_labels,
    save_face_predictions,
    save_sample_probs,
    train_crf,
)
from .descriptor import DescriptorNet, extract_features, predict_probs, train_descriptor
from .errors import ConfigError, InterchangeError, MatsegError, UnknownComponentError
from .evaluation import EvalReport, confusion_matrix, top1_accuracy
from .geodesics import geodesic_pairs, load_distance_pairs, save_distance_pairs
from .jsonl import read_jsonl, record_line, write_jsonl
from .materials import MaterialLabelSet, multihot
from .mesh import attach_labels, compute_adjacency, load_labels, load_obj, save_labels, save_obj
from .sampling import (
    load_samples,
    sample_surface_points,
    save_samples,
    subsample_even,
    visibility_filter,
)
from .symmetry import (
    detect_symmetries,
    load_symmetry_pairs,
    save_symmetries,
    save_symmetry_pairs,
    symmetry_pairs,
)
from .synth import generate, load_spec, save_spec

log = logging.getLogger("matseg")

MESH_FILE = "mesh.obj"
LABELS_FILE = "labels.json"
SPEC_FILE = "spec.json"
TRUTH_FILE = "face_truth.jsonl"
SAMPLES_FILE = "samples.jsonl"
PROBS_FILE = "sample_probs.jsonl"
GEODESIC_FILE = "geodesic_pairs.jsonl"
SYMMETRIES_FILE = "symmetries.json"
SYMMETRY_PAIRS_FILE = "symmetry_pairs.jsonl"
PREDICTIONS_FILE = "predictions.jsonl"
NET_FILE = "net.json"
WEIGHTS_FILE = "crf_weights.json"
REPORT_FILE = "report.json"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="matseg", description=__doc__)
    parser.add_argument("--version", action="version", version=f"matseg {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file with sections")
    common.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override a single config entry (repeatable)",
    )
    common.add_argument("--seed", type=int, help="override run.seed")
    common.add_argument("--out", help="output file or directory (stage-dependent default)")

    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("synth", parents=[common], help="generate a labeled shape from a spec")
    p.add_argument("--spec", required=True, help="shape spec JSON")

    p = sub.add_parser("sample", parents=[common], help="draw evened surface samples")
    _shape_flags(p)
    p.add_argument("-n", type=int, dest="sampling.n_points", metavar="N",
                   help="points to draw before filtering (sampling.n_points)")
    p.add_argument("-k", type=int, dest="sampling.keep", metavar="K",
                   help="points to keep after subsampling (sampling.keep)")

    p = sub.add_parser("symmetry", parents=[common], help="detect symmetries and face pairs")
    _shape_flags(p)

    p = sub.add_parser("geodesic", parents=[common], help="short-range geodesic face pairs")
    _shape_flags(p)

    p = sub.add_parser("train-desc", parents=[common], help="train the descriptor network")
    p.add_argument("--data", required=True, help="directory of shape directories")

    p = sub.add_parser("predict", parents=[common], help="per-sample material probabilities")
    _shape_flags(p)
    p.add_argument("--net", required=True, help="descriptor network JSON")

    p = sub.add_parser("train-crf", parents=[common], help="fit smoothing weights on labeled shapes")
    p.add_argument("--data", required=True, help="directory of shape directories")

    p = sub.add_parser("infer", parents=[common], help="smooth unaries into face labels")
    _shape_flags(p)
    p.add_argument("--weights", help="CRF weight JSON (default: all-ones)")

    p = sub.add_parser("eval", parents=[common], help="score predictions against truth")
    p.add_argument("--pred", required=True, help="face predictions JSON-lines")
    p.add_argument("--truth", required=True, help="face truth JSON-lines")
    p.add_argument("--csv", help="also write CSV tables with this basename")
    return parser


def _shape_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--shape", required=True, help="shape directory (mesh.obj and friends)")


def _effective_config(args) -> PipelineConfig:
    config = load_config(args.config) if args.config else PipelineConfig()
    pairs = []
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set needs SECTION.KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        pairs.append((key.strip(), value))
    if args.seed is not None:
        pairs.append(("run.seed", str(args.seed)))
    # flags whose destination is a config key, such as sample's -n
    pairs += [(key, str(value)) for key, value in vars(args).items() if "." in key and value is not None]
    return apply_items(config, pairs)


def _load_shape(d: str, with_labels: bool = True):
    """A shape directory's mesh, with its labels file attached when asked and present."""
    mesh = load_obj(os.path.join(d, MESH_FILE))
    labels_path = os.path.join(d, LABELS_FILE)
    if with_labels and os.path.exists(labels_path):
        doc = load_labels(labels_path)
        try:
            mesh = attach_labels(mesh, doc)
        except UnknownComponentError as exc:
            raise InterchangeError(labels_path, str(exc)) from None
    return mesh


def _out_path(args, default_dir: str, default_name: str) -> str:
    if args.out is None:
        return os.path.join(default_dir, default_name)
    if os.path.isdir(args.out):
        return os.path.join(args.out, default_name)
    return args.out


def write_face_truth(path: str, mesh) -> None:
    """JSON-lines {face, labels}: the per-face ground-truth label names."""
    write_jsonl(path, ({"face": f, "labels": list(mesh.face_label_set(f))}
                       for f in range(mesh.n_faces)))


def read_face_truth(path: str) -> np.ndarray:
    """Read truth lines back as a (faces, materials) 0/1 array in face order.

    Faces must run exactly over 0..n-1 and every label must be one of
    MATERIALS, else InterchangeError names the file (and the line).
    """
    fields = {"face": int, "labels": (list, MaterialLabelSet)}
    return multihot([rec["labels"] for rec in read_jsonl(path, fields, index="face")])


def _cmd_synth(args, config: PipelineConfig) -> int:
    spec = load_spec(args.spec)
    if args.seed is not None:
        spec.seed = args.seed
    mesh = generate(spec)
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    save_obj(os.path.join(out, MESH_FILE), mesh)
    save_labels(os.path.join(out, LABELS_FILE), mesh)
    save_spec(os.path.join(out, SPEC_FILE), spec)
    write_face_truth(os.path.join(out, TRUTH_FILE), mesh)
    log.info(
        "synth: %d vertices, %d faces, %d components -> %s",
        len(mesh.vertices), mesh.n_faces, mesh.n_components, out,
    )
    return 0


def _cmd_sample(args, config: PipelineConfig) -> int:
    mesh = _load_shape(args.shape)
    cfg = config.sampling
    n, k = cfg.n_points, cfg.keep
    samples = sample_surface_points(mesh, n, seed=config.run.seed, relax_iterations=cfg.relax_iterations)
    visible = visibility_filter(mesh, samples, n_rays=cfg.visibility_rays, offset=cfg.visibility_offset)
    if not visible:
        raise MatsegError(
            f"{os.path.join(args.shape, MESH_FILE)}: none of {n} drawn samples is visible "
            f"({cfg.visibility_rays} rays per sample)"
        )
    kept = subsample_even(visible, min(k, len(visible)), seed=config.run.seed)
    out = _out_path(args, args.shape, SAMPLES_FILE)
    save_samples(out, kept)
    log.info("sample: %d drawn, %d visible, %d kept -> %s", n, len(visible), len(kept), out)
    return 0


def _cmd_symmetry(args, config: PipelineConfig) -> int:
    mesh = _load_shape(args.shape, with_labels=False)
    cfg = config.symmetry
    syms = detect_symmetries(
        mesh,
        samples_per_component=cfg.samples_per_component,
        rmsd_threshold=cfg.rmsd_threshold,
        seed=config.run.seed,
        max_iter=cfg.max_iter,
    )
    pairs = symmetry_pairs(mesh, syms, residual_cutoff=cfg.residual_cutoff)
    out_dir = args.out or args.shape
    os.makedirs(out_dir, exist_ok=True)
    save_symmetries(os.path.join(out_dir, SYMMETRIES_FILE), syms)
    save_symmetry_pairs(os.path.join(out_dir, SYMMETRY_PAIRS_FILE), pairs)
    log.info("symmetry: %d transforms (%d component pairs), %d face pairs -> %s",
             len({s.transform_id for s in syms}), len(syms), len(pairs), out_dir)
    return 0


def _cmd_geodesic(args, config: PipelineConfig) -> int:
    mesh = _load_shape(args.shape, with_labels=False)
    adjacency = compute_adjacency(mesh)
    pairs = geodesic_pairs(
        mesh,
        adjacency,
        radius_fraction=config.geodesic.radius_fraction,
        cap=config.geodesic.cap,
        seed=config.run.seed,
    )
    out = _out_path(args, args.shape, GEODESIC_FILE)
    save_distance_pairs(out, pairs)
    log.info("geodesic: %d pairs -> %s", len(pairs), out)
    return 0


def _shape_dirs(root: str, required: str) -> list[str]:
    dirs = []
    for name in sorted(os.listdir(root)):
        d = os.path.join(root, name)
        if os.path.isdir(d) and os.path.exists(os.path.join(d, required)):
            dirs.append(d)
    if not dirs:
        raise ConfigError(f"no shape directories with {required} under {root}")
    return dirs


def _cmd_train_desc(args, config: PipelineConfig) -> int:
    cfg = config.descriptor
    feats, labels = [], []
    for d in _shape_dirs(args.data, SAMPLES_FILE):
        # the shape's labels file is the truth; load_samples reads it off the mesh
        labels_path = os.path.join(d, LABELS_FILE)
        if not os.path.exists(labels_path):
            raise InterchangeError(labels_path, "not found; train-desc takes each sample's truth from it")
        mesh = _load_shape(d)
        samples = load_samples(os.path.join(d, SAMPLES_FILE), mesh)
        feats.append(extract_features(mesh, samples))
        labels.append(samples.labels)
    features = np.vstack(feats)
    truth = np.vstack(labels)
    if len(features) > cfg.max_train_points:
        rng = np.random.default_rng(config.run.seed)
        idx = np.sort(rng.choice(len(features), size=cfg.max_train_points, replace=False))
        features, truth = features[idx], truth[idx]
    net, trace = train_descriptor(
        features,
        truth,
        variant=cfg.variant,
        epochs=cfg.epochs,
        seed=config.run.seed,
        pairs_per_step=cfg.pairs_per_step,
        steps_per_epoch=cfg.steps_per_epoch,
        lr=cfg.lr,
        layer_sizes=cfg.layer_sizes,
        margin=cfg.margin,
    )
    out = _out_path(args, args.data, NET_FILE)
    net.save(out)
    log.info(
        "train-desc: %d points, %d epochs, final loss %.6f -> %s",
        len(features), cfg.epochs, trace[-1]["total"] if trace else float("nan"), out,
    )
    return 0


def _cmd_predict(args, config: PipelineConfig) -> int:
    mesh = _load_shape(args.shape, with_labels=False)
    samples = load_samples(os.path.join(args.shape, SAMPLES_FILE), mesh)
    net = DescriptorNet.load(args.net)
    probs, _ = predict_probs(net, extract_features(mesh, samples))
    out = _out_path(args, args.shape, PROBS_FILE)
    save_sample_probs(out, probs)
    log.info("predict: %d samples -> %s", len(samples), out)
    return 0


def _faces_on_mesh(path: str, faces: np.ndarray, mesh) -> None:
    """InterchangeError naming ``path`` and the first of its face ids, in
    file order, that is not one of the mesh's faces."""
    bad = np.flatnonzero((faces < 0) | (faces >= mesh.n_faces))
    if len(bad):
        raise InterchangeError(path, f"face {faces.flat[bad[0]]} is not one of the mesh's "
                                     f"{mesh.n_faces} faces; the file is from another mesh")


def _build_shape_graph(d: str, weights=None, with_truth=False):
    """A shape directory's CRF; a stage file written for other samples or
    another mesh raises InterchangeError naming it."""
    mesh = _load_shape(d)
    samples = load_samples(os.path.join(d, SAMPLES_FILE), mesh)
    probs_path = os.path.join(d, PROBS_FILE)
    probs = load_sample_probs(probs_path)
    if len(probs) != len(samples):
        raise InterchangeError(probs_path, f"probabilities of shape {probs.shape} for "
                                           f"{len(samples)} samples in {SAMPLES_FILE}")
    geo_path = os.path.join(d, GEODESIC_FILE)
    sym_path = os.path.join(d, SYMMETRY_PAIRS_FILE)
    dist_pairs = load_distance_pairs(geo_path) if os.path.exists(geo_path) else None
    sym_pairs = load_symmetry_pairs(sym_path) if os.path.exists(sym_path) else None
    if dist_pairs is not None:
        _faces_on_mesh(geo_path, dist_pairs.pairs, mesh)
    if sym_pairs is not None:
        _faces_on_mesh(sym_path, np.array([[p.face_a, p.face_b] for p in sym_pairs]), mesh)
    truth = multihot(mesh.labels)[mesh.face_component].T if with_truth else None
    return build_crf(
        mesh,
        samples.positions,
        probs,
        adjacency=compute_adjacency(mesh),
        dist_pairs=dist_pairs,
        sym_pairs=sym_pairs,
        weights=weights,
        truth=truth,
    )


def _cmd_train_crf(args, config: PipelineConfig) -> int:
    cfg = config.crf
    graphs = [
        _build_shape_graph(d, with_truth=True)
        for d in _shape_dirs(args.data, PROBS_FILE)
    ]
    weights, trace = train_crf(
        graphs, lr=cfg.lr, iters=cfg.iters, infer_iter=cfg.infer_iter, infer_tol=cfg.infer_tol
    )
    out = _out_path(args, args.data, WEIGHTS_FILE)
    weights.save(out)
    log.info(
        "train-crf: %d graphs, score %.6f -> %.6f -> %s",
        len(graphs), trace[0] if trace else float("nan"),
        trace[-1] if trace else float("nan"), out,
    )
    return 0


def _cmd_infer(args, config: PipelineConfig) -> int:
    cfg = config.crf
    weights = CrfWeights.load(args.weights) if args.weights else None
    graph = _build_shape_graph(args.shape, weights=weights)
    marginals = mean_field_infer(graph, max_iter=cfg.infer_iter, tol=cfg.infer_tol)
    predictions = predict_labels(marginals, threshold=cfg.label_threshold)
    out = _out_path(args, args.shape, PREDICTIONS_FILE)
    save_face_predictions(out, marginals, predictions)
    log.info(
        "infer: %d faces, converged=%s after %d sweeps (%d step halvings) -> %s",
        graph.n_faces, marginals.converged, marginals.sweeps, marginals.halvings, out,
    )
    return 0


def _cmd_eval(args, config: PipelineConfig) -> int:
    top1, _, _ = load_face_predictions(args.pred)
    truth = read_face_truth(args.truth)
    if len(truth) != len(top1):
        # a longer truth file is to blame from its first line past the predicted faces
        line = record_line(args.truth, len(top1)) if len(truth) > len(top1) else None
        raise InterchangeError(args.truth, f"{len(truth)} faces, but {args.pred} predicts {len(top1)}", line)
    report = EvalReport()
    report.top1 = top1_accuracy(top1, truth)
    report.confusion = confusion_matrix(top1, truth)
    out = args.out or REPORT_FILE
    report.save_json(out)
    if args.csv:
        report.save_csv(args.csv)
    log.info("eval: mean top-1 %.4f -> %s", report.top1[1], out)
    return 0


_DISPATCH = {
    "synth": _cmd_synth,
    "sample": _cmd_sample,
    "symmetry": _cmd_symmetry,
    "geodesic": _cmd_geodesic,
    "train-desc": _cmd_train_desc,
    "predict": _cmd_predict,
    "train-crf": _cmd_train_crf,
    "infer": _cmd_infer,
    "eval": _cmd_eval,
}


def main(argv=None) -> int:
    if not log.handlers:
        logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        config = _effective_config(args)
        log.info("%s: seed=%d config=%s", args.command, config.run.seed, config.hash())
        return _DISPATCH[args.command](args, config)
    except MatsegError as exc:
        log.error("%s", exc)
        return 1
    except OSError as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
