"""Pipeline subcommands with file-based interchange.

Stages communicate through files in a shape directory: synth writes
mesh.obj/labels.json, sample writes samples.jsonl, and so on, so any
stage can be rerun in isolation. Every run logs the seed and a hash of
the effective configuration; outputs carry no timestamps, so identical
config and seed produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from .config import PipelineConfig, apply_items, load_config
from .crf import (
    CrfWeights,
    build_crf,
    face_label_matrix,
    load_face_predictions,
    load_sample_probs,
    mean_field_infer,
    predict_labels,
    save_face_predictions,
    save_sample_probs,
    train_crf,
)
from .descriptor import DescriptorNet, extract_features, label_matrix, predict_probs, train_descriptor
from .errors import ConfigError, InterchangeError, MatsegError
from .evaluation import EvalReport, confusion_matrix, top1_accuracy
from .geodesics import geodesic_pairs, load_distance_pairs, save_distance_pairs
from .materials import MATERIALS
from .mesh import attach_labels, compute_adjacency, load_labels, load_obj, save_labels, save_obj
from .sampling import (
    load_samples,
    positions_of,
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
    p.add_argument("-n", type=int, default=None, help="points to draw before filtering")
    p.add_argument("-k", type=int, default=None, help="points to keep after subsampling")

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
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--shape", help="shape directory (mesh.obj and friends)")
    g.add_argument("--mesh", help="explicit mesh OBJ path")


def _effective_config(args) -> PipelineConfig:
    config = load_config(args.config) if args.config else PipelineConfig()
    pairs = []
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set needs SECTION.KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        pairs.append((key.strip(), value))
    apply_items(config, pairs)
    if args.seed is not None:
        config.run.seed = args.seed
    return config


def _shape_dir(args) -> str:
    if args.shape:
        return args.shape
    return os.path.dirname(os.path.abspath(args.mesh))


def _mesh_path(args) -> str:
    if args.mesh:
        return args.mesh
    return os.path.join(args.shape, MESH_FILE)


def _load_shape(args, with_labels: bool = True):
    mesh = load_obj(_mesh_path(args))
    labels_path = os.path.join(_shape_dir(args), LABELS_FILE)
    if with_labels and os.path.exists(labels_path):
        mesh = attach_labels(mesh, load_labels(labels_path))
    return mesh


def _out_path(args, default_dir: str, default_name: str) -> str:
    if args.out is None:
        return os.path.join(default_dir, default_name)
    if os.path.isdir(args.out):
        return os.path.join(args.out, default_name)
    return args.out


def write_face_truth(path: str, mesh) -> None:
    """JSON-lines {face, labels}: the per-face ground-truth label names."""
    with open(path, "w", encoding="utf-8") as fh:
        for f in range(mesh.n_faces):
            rec = {"face": f, "labels": list(mesh.face_label_set(f))}
            fh.write(json.dumps(rec) + "\n")


def read_face_truth(path: str, materials=MATERIALS) -> np.ndarray:
    """Read truth lines back as a (faces, materials) 0/1 array in face order.

    Invalid JSON, a line without an integer ``face`` and a ``labels`` list,
    or a label outside ``materials`` raises InterchangeError naming the file
    and line.
    """
    index = {name: i for i, name in enumerate(materials)}
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InterchangeError(path, f"invalid JSON: {exc.msg}", lineno) from None
            if (not isinstance(rec, dict) or type(rec.get("face")) is not int
                    or not isinstance(rec.get("labels"), list)):
                raise InterchangeError(path, "expected {face: int, labels: [...]}", lineno)
            unknown = [n for n in rec["labels"] if not isinstance(n, str) or n not in index]
            if unknown:
                raise InterchangeError(path, f"unknown material {unknown[0]!r}", lineno)
            rows.append((rec["face"], [index[name] for name in rec["labels"]]))
    rows.sort(key=lambda r: r[0])
    truth = np.zeros((len(rows), len(materials)))
    for i, (_, labels) in enumerate(rows):
        truth[i, labels] = 1.0
    return truth


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
    mesh = _load_shape(args)
    cfg = config.sampling
    n = args.n if args.n is not None else cfg.n_points
    k = args.k if args.k is not None else cfg.keep
    samples = sample_surface_points(mesh, n, seed=config.run.seed, relax_iterations=cfg.relax_iterations)
    visible = visibility_filter(mesh, samples, n_rays=cfg.visibility_rays, offset=cfg.visibility_offset)
    kept = subsample_even(visible, min(k, len(visible)), seed=config.run.seed)
    out = _out_path(args, _shape_dir(args), SAMPLES_FILE)
    save_samples(out, kept)
    log.info("sample: %d drawn, %d visible, %d kept -> %s", n, len(visible), len(kept), out)
    return 0


def _cmd_symmetry(args, config: PipelineConfig) -> int:
    mesh = _load_shape(args, with_labels=False)
    cfg = config.symmetry
    syms = detect_symmetries(
        mesh,
        samples_per_component=cfg.samples_per_component,
        rmsd_threshold=cfg.rmsd_threshold,
        seed=config.run.seed,
        max_iter=cfg.max_iter,
    )
    pairs = symmetry_pairs(mesh, syms, residual_cutoff=cfg.residual_cutoff)
    out_dir = args.out or _shape_dir(args)
    os.makedirs(out_dir, exist_ok=True)
    save_symmetries(os.path.join(out_dir, SYMMETRIES_FILE), syms)
    save_symmetry_pairs(os.path.join(out_dir, SYMMETRY_PAIRS_FILE), pairs)
    log.info("symmetry: %d transforms, %d face pairs -> %s", len(syms), len(pairs), out_dir)
    return 0


def _cmd_geodesic(args, config: PipelineConfig) -> int:
    mesh = _load_shape(args, with_labels=False)
    adjacency = compute_adjacency(mesh)
    pairs = geodesic_pairs(
        mesh,
        adjacency,
        radius_fraction=config.geodesic.radius_fraction,
        cap=config.geodesic.cap,
        seed=config.run.seed,
    )
    out = _out_path(args, _shape_dir(args), GEODESIC_FILE)
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


def _load_dir_shape(d: str):
    mesh = load_obj(os.path.join(d, MESH_FILE))
    labels_path = os.path.join(d, LABELS_FILE)
    if os.path.exists(labels_path):
        mesh = attach_labels(mesh, load_labels(labels_path))
    return mesh


def _cmd_train_desc(args, config: PipelineConfig) -> int:
    cfg = config.descriptor
    feats, labels = [], []
    for d in _shape_dirs(args.data, SAMPLES_FILE):
        mesh = _load_dir_shape(d)
        samples = load_samples(os.path.join(d, SAMPLES_FILE), mesh)
        feats.append(extract_features(mesh, samples))
        labels.append(label_matrix(samples))
    features = np.vstack(feats)
    truth = np.vstack(labels)
    if len(features) > cfg.max_train_points:
        rng = np.random.default_rng(config.run.seed)
        idx = np.sort(rng.choice(len(features), size=cfg.max_train_points, replace=False))
        features, truth = features[idx], truth[idx]
    lambdas = None
    if not (np.isnan(cfg.lambda_class) or np.isnan(cfg.lambda_contr)):
        lambdas = (cfg.lambda_class, cfg.lambda_contr)
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
        lambdas=lambdas,
    )
    out = _out_path(args, args.data, NET_FILE)
    net.save(out)
    log.info(
        "train-desc: %d points, %d epochs, final loss %.6f -> %s",
        len(features), cfg.epochs, trace[-1]["total"] if trace else float("nan"), out,
    )
    return 0


def _cmd_predict(args, config: PipelineConfig) -> int:
    mesh = _load_shape(args, with_labels=False)
    d = _shape_dir(args)
    samples = load_samples(os.path.join(d, SAMPLES_FILE), mesh)
    net = DescriptorNet.load(args.net)
    probs, _ = predict_probs(net, extract_features(mesh, samples))
    out = _out_path(args, d, PROBS_FILE)
    save_sample_probs(out, probs)
    log.info("predict: %d samples -> %s", len(samples), out)
    return 0


def _build_shape_graph(d: str, config: PipelineConfig, weights=None, with_truth=False):
    mesh = _load_dir_shape(d)
    samples = load_samples(os.path.join(d, SAMPLES_FILE), mesh)
    probs = load_sample_probs(os.path.join(d, PROBS_FILE))
    geo_path = os.path.join(d, GEODESIC_FILE)
    sym_path = os.path.join(d, SYMMETRY_PAIRS_FILE)
    dist_pairs = load_distance_pairs(geo_path) if os.path.exists(geo_path) else None
    sym_pairs = load_symmetry_pairs(sym_path) if os.path.exists(sym_path) else None
    truth = face_label_matrix(mesh) if with_truth else None
    return build_crf(
        mesh,
        positions_of(samples),
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
        _build_shape_graph(d, config, with_truth=True)
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
    d = _shape_dir(args)
    graph = _build_shape_graph(d, config, weights=weights)
    marginals = mean_field_infer(graph, max_iter=cfg.infer_iter, tol=cfg.infer_tol)
    predictions = predict_labels(marginals, threshold=cfg.label_threshold)
    out = _out_path(args, d, PREDICTIONS_FILE)
    save_face_predictions(out, marginals, predictions)
    log.info(
        "infer: %d faces, converged=%s after %d sweeps -> %s",
        graph.n_faces, marginals.converged, marginals.sweeps, out,
    )
    return 0


def _cmd_eval(args, config: PipelineConfig) -> int:
    top1, _, _ = load_face_predictions(args.pred)
    truth = read_face_truth(args.truth)
    report = EvalReport(materials=tuple(MATERIALS))
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
