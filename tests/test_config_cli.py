import json
import logging
import math
import os
import re

import numpy as np
import pytest

from matseg import cli
from matseg.config import PipelineConfig, apply_items, load_config, save_config
from matseg.errors import ConfigError
from matseg.materials import MATERIALS
from matseg.mesh import attach_labels, load_labels, load_obj


def test_defaults_and_rendered_items():
    cfg = PipelineConfig()
    assert cfg.sampling.n_points == 150
    assert cfg.descriptor.margin == math.sqrt(0.2) - 0.2
    items = dict(cfg.items())
    assert items["descriptor.layer_sizes"] == "64,128,64,32"
    assert items["run.seed"] == "0"


def test_apply_items_parses_types():
    cfg = apply_items(PipelineConfig(), [
        ("run.seed", "7"),
        ("sampling.n_points", " 99 "),
        ("crf.lr", "0.5"),
        ("descriptor.layer_sizes", "64,16,8,4"),
        ("descriptor.variant", "classification"),
    ])
    assert cfg.run.seed == 7
    assert cfg.sampling.n_points == 99
    assert cfg.crf.lr == 0.5
    assert cfg.descriptor.layer_sizes == (64, 16, 8, 4)
    assert cfg.descriptor.variant == "classification"


def test_apply_items_rejects_bad_keys_and_values():
    for key in ("nonsense", "run.bogus", "nosection.seed", "eval.ks"):
        with pytest.raises(ConfigError):
            apply_items(PipelineConfig(), [(key, "1")])
    with pytest.raises(ConfigError):
        apply_items(PipelineConfig(), [("run.seed", "not-a-number")])
    # a non-finite float would pass every range test a stage makes
    for raw in ("nan", "inf", "-inf"):
        with pytest.raises(ConfigError, match="sampling.visibility_offset"):
            apply_items(PipelineConfig(), [("sampling.visibility_offset", raw)])


def test_config_file_round_trip(tmp_path):
    cfg = apply_items(PipelineConfig(), [("run.seed", "5"), ("crf.iters", "3")])
    path = tmp_path / "pipeline.ini"
    save_config(str(path), cfg)
    back = load_config(str(path))
    assert back == cfg
    assert back.items() == cfg.items()
    assert back.hash() == cfg.hash()


def test_partial_config_keeps_defaults(tmp_path):
    path = tmp_path / "partial.ini"
    path.write_text("[sampling]\nn_points = 10\n", encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg.sampling.n_points == 10
    assert cfg.sampling.keep == 75
    with pytest.raises(OSError):
        load_config(str(tmp_path / "missing.ini"))
    bad = tmp_path / "bad.ini"
    bad.write_text("[sampling]\nbogus = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(bad))


def test_hash_tracks_content():
    a = PipelineConfig()
    b = apply_items(PipelineConfig(), [("run.seed", "1")])
    assert a.hash() == PipelineConfig().hash()
    assert a.hash() != b.hash()
    assert len(a.hash()) == 12


def write_spec(tmp_path, **fields):
    spec = {
        "category": "table", "legs": 4, "leg_shape": "prism",
        "top_shape": "pinwheel",
        "materials": {"leg": ["metal"], "top": ["wood"]},
        "jitter": 0.0, "seed": 3,
        **fields,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


def test_cli_synth_writes_shape_directory(tmp_path):
    spec = write_spec(tmp_path)
    out = tmp_path / "shape"
    assert cli.main(["synth", "--spec", spec, "--out", str(out)]) == 0
    mesh = load_obj(str(out / "mesh.obj"))
    assert mesh.n_faces > 0
    doc = load_labels(str(out / "labels.json"))
    labeled = attach_labels(mesh, doc)
    assert all(lab for lab in labeled.labels)
    truth = cli.read_face_truth(str(out / "face_truth.jsonl"))
    assert len(truth) == mesh.n_faces
    assert (out / "spec.json").exists()


def test_cli_seed_overrides_spec(tmp_path):
    spec = write_spec(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        args = ["synth", "--spec", spec, "--out", str(out)]
        if out is b:
            args += ["--seed", "3"]
        assert cli.main(args) == 0
    va = load_obj(str(a / "mesh.obj")).vertices
    vb = load_obj(str(b / "mesh.obj")).vertices
    assert np.array_equal(va, vb)  # spec already uses seed 3


def test_cli_error_paths(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    # bad --set format and unknown key both fail cleanly
    spec = write_spec(tmp_path)
    base = ["synth", "--spec", spec, "--out", str(tmp_path / "x")]
    assert cli.main(base + ["--set", "noequals"]) == 1
    assert cli.main(base + ["--set", "run.bogus=1"]) == 1
    # a negative seed, from the flag or the config, fails before numpy sees it
    assert cli.main(base + ["--seed", "-1"]) == 1
    assert cli.main(base + ["--set", "run.seed=-1"]) == 1
    assert not (tmp_path / "x").exists()
    # unreadable spec file
    assert cli.main(["synth", "--spec", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "y")]) == 1


@pytest.fixture(scope="module")
def sampled_shapes(tmp_path_factory):
    """A directory holding one synthesized table with its samples, and a
    box chair."""
    root = tmp_path_factory.mktemp("data")
    out = root / "t"
    assert cli.main(["synth", "--spec", write_spec(root), "--out", str(out)]) == 0
    assert cli.main(["sample", "--shape", str(out), "-n", "60", "-k", "30"]) == 0
    chair = write_spec(root, category="chair", leg_shape="box",
                       materials={"seat": ["fabric"], "back": ["fabric"], "leg": ["wood"]})
    assert cli.main(["synth", "--spec", chair, "--out", str(root / "chair")]) == 0
    return root


@pytest.mark.parametrize("command, argv, key", [
    ("train-desc", ["--set", "descriptor.variant=nonsense"], "descriptor.variant"),
    ("train-desc", ["--set", "descriptor.layer_sizes=2,4"], "descriptor.layer_sizes"),
    ("train-desc", ["--set", "descriptor.layer_sizes=64,8,8,4,4"], "descriptor.layer_sizes"),
    ("train-desc", ["--set", "descriptor.steps_per_epoch=0"], "descriptor.steps_per_epoch"),
    ("sample", ["--set", "sampling.n_points=0"], "sampling.n_points"),
    ("sample", ["-n", "0"], "sampling.n_points"),
    ("geodesic", ["--set", "geodesic.radius_fraction=-1"], "geodesic.radius_fraction"),
    ("symmetry", ["--set", "symmetry.samples_per_component=0"], "symmetry.samples_per_component"),
    ("symmetry", ["--set", "symmetry.samples_per_component=2"], "symmetry.samples_per_component"),
    ("symmetry", ["--set", "symmetry.rmsd_threshold=0"], "symmetry.rmsd_threshold"),
    ("symmetry", ["--set", "symmetry.rmsd_threshold=-1"], "symmetry.rmsd_threshold"),
    ("sample", ["-k", "0"], "sampling.keep"),
    ("sample", ["--set", "sampling.keep=0"], "sampling.keep"),
    ("train-desc", ["--set", "descriptor.pairs_per_step=0"], "descriptor.pairs_per_step"),
    ("train-desc", ["--set", "descriptor.lr=-1"], "descriptor.lr"),
    ("train-desc", ["--set", "descriptor.margin=-1"], "descriptor.margin"),
    ("train-crf", ["--set", "crf.lr=-1"], "crf.lr"),
    ("infer", ["--set", "crf.infer_tol=-1"], "crf.infer_tol"),
    ("infer", ["--set", "crf.label_threshold=2"], "crf.label_threshold"),
])
def test_cli_rejects_values_a_stage_cannot_run_with(sampled_shapes, caplog, command, argv, key):
    shape = sampled_shapes / ("chair" if command == "symmetry" else "t")
    where = ["--data", str(sampled_shapes)] if command.startswith("train-") else ["--shape", str(shape)]
    caplog.clear()
    assert cli.main([command, *where, *argv, "--out", str(sampled_shapes / "result")]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].startswith(key) and "\n" not in errors[0]
    assert "Traceback" not in caplog.text
    assert not (sampled_shapes / "result").exists()


def test_cli_sample_then_infer_smoke(tmp_path, caplog):
    spec = write_spec(tmp_path)
    out = tmp_path / "shape"
    assert cli.main(["synth", "--spec", spec, "--out", str(out)]) == 0
    assert cli.main(["sample", "--shape", str(out), "-n", "60", "-k", "30",
                     "--seed", "0"]) == 0
    samples = (out / "samples.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(samples) == 30
    # hand the sampler output straight to inference with flat probabilities
    names = ("wood", "plastic", "metal", "glass", "fabric")
    with open(out / "sample_probs.jsonl", "w", encoding="utf-8") as fh:
        for i in range(len(samples)):
            rec = {"sample_index": i, "probs": {n: 0.2 for n in names}}
            fh.write(json.dumps(rec) + "\n")
    caplog.set_level(logging.INFO, logger="matseg")
    assert cli.main(["infer", "--shape", str(out)]) == 0
    assert any(re.search(r"converged=True after \d+ sweeps \(\d+ step halvings\)", r.getMessage())
               for r in caplog.records)
    preds = [json.loads(l) for l in
             (out / "predictions.jsonl").read_text(encoding="utf-8").splitlines()]
    assert len(preds) == load_obj(str(out / "mesh.obj")).n_faces
    assert all(set(p) >= {"face", "top1", "label_set", "marginals"} for p in preds)


def test_cli_sample_without_visible_samples_names_the_mesh(tmp_path, caplog):
    spec = write_spec(tmp_path)
    out = tmp_path / "shape"
    assert cli.main(["synth", "--spec", spec, "--out", str(out)]) == 0
    caplog.clear()
    # no rays: no sample can see out, so nothing is left to subsample
    assert cli.main(["sample", "--shape", str(out), "-n", "20", "-k", "10",
                     "--set", "sampling.visibility_rays=0"]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and str(out / "mesh.obj") in errors[0]
    assert "none of 20 drawn samples is visible" in errors[0]
    assert "Traceback" not in caplog.text
    assert not (out / "samples.jsonl").exists()


@pytest.mark.parametrize("damage, message", [
    # the file ends early on a line boundary: fewer rows than samples
    (lambda lines: lines[:-5], "probabilities of shape (25, 5) for 30 samples"),
    # one line deleted from the middle: indices skip a sample
    (lambda lines: lines[:12] + lines[13:], "not 0..28: 12 is missing"),
    # the file ends in the middle of a line
    (lambda lines: lines[:-1] + [lines[-1][:17]], "line 30: invalid JSON"),
])
def test_cli_infer_rejects_damaged_probabilities(tmp_path, caplog, damage, message):
    from matseg.crf import save_sample_probs

    spec = write_spec(tmp_path)
    out = tmp_path / "shape"
    assert cli.main(["synth", "--spec", spec, "--out", str(out)]) == 0
    assert cli.main(["sample", "--shape", str(out), "-n", "60", "-k", "30",
                     "--seed", "0"]) == 0
    probs = out / "sample_probs.jsonl"
    save_sample_probs(str(probs), np.full((30, 5), 0.2))
    lines = probs.read_text(encoding="utf-8").splitlines()
    probs.write_text("\n".join(damage(lines)) + "\n", encoding="utf-8")
    caplog.clear()
    assert cli.main(["infer", "--shape", str(out)]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and message in errors[0]
    assert "Traceback" not in caplog.text
    assert not (out / "predictions.jsonl").exists()


@pytest.mark.parametrize("truth, message", [
    ('{"face": 0, "labels": ["sand"]}', "line 1: unknown material 'sand'"),
    ('{"face": 0, "labels": ["wood"]', "line 1: invalid JSON"),
    ('{"face": 0, "labels": ["wood"]}\n{"labels": ["wood"]}', "line 2: expected {face: int"),
    ('{"face": 0, "labels": ["wood"]}\n{"face": 2, "labels": ["wood"]}',
     "line 2: face 2 is out of range, so the values are not 0..1: 1 is missing"),
])
def test_cli_eval_rejects_bad_truth(tmp_path, caplog, truth, message):
    names = ("wood", "plastic", "metal", "glass", "fabric")
    pred = tmp_path / "predictions.jsonl"
    rec = {"face": 0, "top1": "wood", "label_set": ["wood"],
           "marginals": {n: 0.2 for n in names}}
    pred.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    path = tmp_path / "face_truth.jsonl"
    path.write_text(truth + "\n", encoding="utf-8")
    caplog.clear()
    assert cli.main(["eval", "--pred", str(pred), "--truth", str(path),
                     "--out", str(tmp_path / "report.json")]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and f"{path}, {message}" in errors[0]
    assert "Traceback" not in caplog.text
    assert not (tmp_path / "report.json").exists()


def infer_ready_shape(tmp_path):
    """A synthesized shape with samples, geodesic pairs, flat probabilities
    and predictions: every file that infer and eval read."""
    from matseg.crf import save_sample_probs

    spec = write_spec(tmp_path)
    out = tmp_path / "shape"
    assert cli.main(["synth", "--spec", spec, "--out", str(out)]) == 0
    assert cli.main(["sample", "--shape", str(out), "-n", "60", "-k", "30",
                     "--seed", "0"]) == 0
    assert cli.main(["geodesic", "--shape", str(out)]) == 0
    save_sample_probs(str(out / "sample_probs.jsonl"), np.full((30, 5), 0.2))
    assert cli.main(["infer", "--shape", str(out)]) == 0
    return out


def replace_line(n, old, new):
    """Damage: swap ``old`` for ``new`` once on line ``n`` (1-based)."""
    return lambda lines: lines[:n - 1] + [lines[n - 1].replace(old, new, 1)] + lines[n:]


@pytest.mark.parametrize("name, damage, message", [
    ("geodesic_pairs.jsonl", replace_line(3, '"d": ', '"d": NaN, "x": '),
     "line 3: expected {face_a: int, face_b: int, d: unit}"),
    ("geodesic_pairs.jsonl", lambda lines: lines[:-1] + [lines[-1][:20]], "invalid JSON"),
    ("geodesic_pairs.jsonl", replace_line(1, '"face_a": ', '"face_a": 99999999999999999999, "x": '),
     "line 1: 99999999999999999999 does not fit in 64 bits"),
    ("samples.jsonl", replace_line(4, '"face": ', '"face": -1, "x": '),
     "line 4: face -1 is not one of the mesh's"),
    ("samples.jsonl", replace_line(5, '"face": ', '"face": 1000000, "x": '),
     "line 5: face 1000000 is not one of the mesh's"),
    ("samples.jsonl", replace_line(7, '"position": [', '"position": [NaN, '),
     "line 7: expected 3 finite numbers"),
    ("samples.jsonl", lambda lines: lines[:-1] + [lines[-1][:30]], "line 30: invalid JSON"),
    ("predictions.jsonl", replace_line(2, '"top1": "', '"top1": "sand", "x": "'),
     "line 2: unknown material 'sand'"),
    ("predictions.jsonl", lambda lines: lines[:4] + lines[5:],
     "line 127: face 127 is out of range, so the values are not 0..126: 4 is missing"),
    ("predictions.jsonl", lambda lines: lines[:-1] + [lines[-1][:25]], "invalid JSON"),
])
def test_cli_rejects_damaged_stage_files(tmp_path, caplog, name, damage, message):
    out = infer_ready_shape(tmp_path)
    path = out / name
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(damage(lines)) + "\n", encoding="utf-8")
    if name == "predictions.jsonl":
        result = tmp_path / "report.json"
        argv = ["eval", "--pred", str(path), "--truth", str(out / "face_truth.jsonl"),
                "--out", str(result)]
    else:
        result = out / "predictions.jsonl"
        result.unlink()
        argv = ["infer", "--shape", str(out)]
    caplog.clear()
    assert cli.main(argv) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and f"{path}, line " in errors[0] and message in errors[0]
    assert "Traceback" not in caplog.text
    assert not result.exists()


def test_cli_infer_rejects_pair_outside_mesh(tmp_path, caplog):
    out = infer_ready_shape(tmp_path)
    (out / "predictions.jsonl").unlink()
    path = out / "geodesic_pairs.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(replace_line(1, '"face_a": ', '"face_a": 1000000, "x": ')(lines))
                    + "\n", encoding="utf-8")
    caplog.clear()
    assert cli.main(["infer", "--shape", str(out)]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].startswith(f"{path}: face 1000000 is not one of the mesh's")
    assert "Traceback" not in caplog.text


@pytest.mark.parametrize("command", ["infer", "train-crf"])
def test_cli_names_a_stale_stage_file(tmp_path, caplog, command):
    """Stage files left from an earlier run that no longer fit: sample
    probabilities for more samples than samples.jsonl now holds, then
    symmetry pairs from a mesh with more faces. The error names the file."""
    from matseg.crf import save_sample_probs
    from matseg.symmetry import SymmetryPair, save_symmetry_pairs

    out = infer_ready_shape(tmp_path)
    argv = {"infer": ["infer", "--shape", str(out)],
            "train-crf": ["train-crf", "--data", str(tmp_path), "--out", str(tmp_path / "w.json"),
                          "--set", "crf.iters=1"]}[command]

    def error():
        caplog.clear()
        assert cli.main(argv) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and "Traceback" not in caplog.text
        return errors[0]

    assert cli.main(["sample", "--shape", str(out), "-n", "60", "-k", "15"]) == 0
    probs = out / "sample_probs.jsonl"
    assert error() == f"{probs}: probabilities of shape (30, 5) for 15 samples in samples.jsonl"
    save_sample_probs(str(probs), np.full((15, 5), 0.2))
    n = load_obj(str(out / "mesh.obj")).n_faces
    pairs = out / "symmetry_pairs.jsonl"
    save_symmetry_pairs(str(pairs), [SymmetryPair(0, 4, 0.125, 0), SymmetryPair(n + 7, 3, 0.25, 0)])
    assert error() == f"{pairs}: face {n + 7} is not one of the mesh's {n} faces; the file is from another mesh"
    save_symmetry_pairs(str(pairs), [SymmetryPair(0, 4, 0.125, 0)])
    assert cli.main(argv) == 0


def set_key(key, value):
    """Damage: set one top-level key of a JSON document."""
    def damage(text):
        doc = json.loads(text)
        doc[key] = value(doc[key]) if callable(value) else value
        return json.dumps(doc)
    return damage


def resize_net(layer_sizes, n_classes):
    """Damage: replace the net by a well-formed one of other sizes."""
    def damage(text):
        dims = [*layer_sizes, n_classes]
        params = [0.0] * sum(a * b + b for a, b in zip(dims, dims[1:]))
        return json.dumps({**json.loads(text), "layer_sizes": list(layer_sizes),
                           "n_classes": n_classes, "params": params})
    return damage


@pytest.mark.parametrize("name, damage, message", [
    ("labels.json", lambda text: '{"labels": {"top": ["sand"]}}', "unknown material 'sand'"),
    ("labels.json", lambda text: text.replace('"labels"', '"lables"'), "expected {labels: dict}"),
    ("labels.json", lambda text: '{"labels": ["wood"]}', "expected {labels: dict}"),
    ("labels.json", set_key("labels", lambda labels: {**labels, "tabletop": ["wood"]}),
     "label document names component 'tabletop'"),
    ("spec.json", set_key("category", "sofa"),
     "expected 'table' or 'chair' or 'cabinet', got 'sofa'"),
    ("spec.json", set_key("legs", "four"), "expected {category: str, legs: int,"),
    ("spec.json", lambda text: text.replace('"metal"', '"sand"'), "unknown material 'sand'"),
    ("spec.json", set_key("jitter", math.nan), "jitter: float"),
    ("spec.json", set_key("seed", -1), "seed -1 is negative"),
    ("spec.json", set_key("legs", -1), "legs -1 is below 1"),
    ("spec.json", lambda text: json.dumps({**json.loads(text), "category": "chair", "legs": 5}),
     "a chair has at most 4 legs, got 5"),
    ("net.json", set_key("format", "descriptor-net-v2"),
     "expected 'descriptor-net-v1', got 'descriptor-net-v2'"),
    ("net.json", set_key("params", lambda params: params[:-1]),
     "layer sizes [64, 128, 64, 32] and 5 classes do not fit 18820 params"),
    ("net.json", resize_net((32, 16, 8, 4), 5), "a net from 32 features to 5 classes"),
    ("net.json", resize_net((64, 16, 8, 4), 2), "a net from 64 features to 2 classes"),
    ("crf_weights.json", lambda text: text[:len(text) // 2], "invalid JSON"),
    ("crf_weights.json", set_key("tables", {}), "expected an entry for each of ['adj', 'dist', 'sym']"),
    ("crf_weights.json", lambda text: f"[{text}]", "expected {format: str, materials: list,"),
    ("crf_weights.json", set_key("materials", lambda names: names[::-1]),
     "expected ['wood', 'plastic', 'metal', 'glass', 'fabric'], got ['fabric',"),
])
def test_cli_rejects_damaged_documents(tmp_path, caplog, name, damage, message):
    from matseg.crf import CrfWeights
    from matseg.descriptor import DescriptorNet

    out = infer_ready_shape(tmp_path)
    DescriptorNet(seed=0).save(str(out / "net.json"))
    CrfWeights.ones().save(str(out / "crf_weights.json"))
    path = out / name
    path.write_text(damage(path.read_text(encoding="utf-8")), encoding="utf-8")
    argv, result = {
        "labels.json": (["sample", "--shape", str(out), "-n", "60", "-k", "30"],
                        out / "samples.jsonl"),
        "spec.json": (["synth", "--spec", str(path), "--out", str(tmp_path / "again")],
                      tmp_path / "again" / "mesh.obj"),
        "net.json": (["predict", "--shape", str(out), "--net", str(path)],
                     out / "sample_probs.jsonl"),
        "crf_weights.json": (["infer", "--shape", str(out), "--weights", str(path)],
                             out / "predictions.jsonl"),
    }[name]
    if result.exists():
        result.unlink()
    caplog.clear()
    assert cli.main(argv) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and str(path) in errors[0] and message in errors[0]
    assert "Traceback" not in caplog.text
    assert not result.exists()


def test_cli_train_desc_names_labels_file_with_unknown_component(tmp_path, caplog):
    out = infer_ready_shape(tmp_path)
    path = out / "labels.json"
    path.write_text(set_key("labels", lambda labels: {**labels, "tabletop": ["wood"]})(
        path.read_text(encoding="utf-8")), encoding="utf-8")
    net = tmp_path / "net.json"
    caplog.clear()
    assert cli.main(["train-desc", "--data", str(tmp_path), "--out", str(net)]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and str(path) in errors[0] and "'tabletop'" in errors[0]
    assert "Traceback" not in caplog.text
    assert not net.exists()


@pytest.mark.filterwarnings("ignore:skipped .* pair draws")  # one material leaves no pair
def test_cli_train_desc_takes_truth_from_the_labels_file(tmp_path, monkeypatch, caplog):
    """Labels edited after sample are the ones train-desc trains on; the
    labels that samples.jsonl stored are not. Without the labels file there
    is no truth, and the error names the file."""
    out = tmp_path / "shape"
    assert cli.main(["synth", "--spec", write_spec(tmp_path), "--out", str(out)]) == 0
    assert cli.main(["sample", "--shape", str(out), "-n", "60", "-k", "30"]) == 0
    path = out / "labels.json"
    path.write_text(set_key("labels", lambda labels: {name: ["glass"] for name in labels})(
        path.read_text(encoding="utf-8")), encoding="utf-8")
    seen = []
    train = cli.train_descriptor

    def capture(features, truth, **kwargs):
        seen.append(truth)
        return train(features, truth, **kwargs)

    monkeypatch.setattr(cli, "train_descriptor", capture)
    assert cli.main(["train-desc", "--data", str(tmp_path), "--out", str(tmp_path / "net.json"),
                     "--set", "descriptor.epochs=1"]) == 0
    (truth,) = seen
    glass = np.eye(5)[MATERIALS.index("glass")]
    assert truth.shape == (30, 5) and (truth == glass).all()

    path.unlink()
    caplog.clear()
    assert cli.main(["train-desc", "--data", str(tmp_path), "--out", str(tmp_path / "again.json")]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and str(path) in errors[0] and "not found" in errors[0]
    assert not (tmp_path / "again.json").exists()


def test_trained_crf_weights_stay_bounded(tmp_path, caplog):
    """Criterion 9's pipeline: training steps each weight-table entry
    directly, so no entry and no logged score runs away (a per-material
    scale times its table once grew both, to an entry of 108,443 and a
    score of 1,170,592)."""
    from test_acceptance import run_pipeline

    from matseg.crf import FAMILIES

    caplog.set_level(logging.INFO, logger="matseg")
    run_pipeline(tmp_path)
    doc = json.loads((tmp_path / "shapes" / "crf_weights.json").read_text(encoding="utf-8"))
    tables = np.array([doc["tables"][f] for f in FAMILIES])
    assert tables.max() < 100.0, tables.max()
    (last,) = [float(m.group(1)) for r in caplog.records
               if (m := re.match(r"train-crf: .* score \S+ -> (\S+) ->", r.getMessage()))]
    assert abs(last) < 1000.0, last
