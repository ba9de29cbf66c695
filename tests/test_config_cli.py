import json
import math
import os

import numpy as np
import pytest

from matseg import cli
from matseg.config import PipelineConfig, apply_items, load_config, save_config
from matseg.errors import ConfigError
from matseg.mesh import attach_labels, load_labels, load_obj


def test_defaults_and_rendered_items():
    cfg = PipelineConfig()
    assert cfg.sampling.n_points == 150
    assert cfg.descriptor.margin == math.sqrt(0.2) - 0.2
    items = dict(cfg.items())
    assert items["eval.ks"] == "1,30,100"
    assert items["eval.balance"] == "true"
    assert items["run.seed"] == "0"


def test_apply_items_parses_types():
    cfg = apply_items(PipelineConfig(), [
        ("run.seed", "7"),
        ("sampling.n_points", " 99 "),
        ("crf.lr", "0.5"),
        ("eval.balance", "OFF"),
        ("eval.ks", "2,4"),
        ("descriptor.variant", "classification"),
    ])
    assert cfg.run.seed == 7
    assert cfg.sampling.n_points == 99
    assert cfg.crf.lr == 0.5
    assert cfg.eval.balance is False
    assert cfg.eval.ks == (2, 4)
    assert cfg.descriptor.variant == "classification"


def test_apply_items_rejects_bad_keys_and_values():
    for key in ("nonsense", "run.bogus", "nosection.seed"):
        with pytest.raises(ConfigError):
            apply_items(PipelineConfig(), [(key, "1")])
    with pytest.raises(ConfigError):
        apply_items(PipelineConfig(), [("run.seed", "not-a-number")])
    with pytest.raises(ConfigError):
        apply_items(PipelineConfig(), [("eval.balance", "perhaps")])


def test_config_file_round_trip(tmp_path):
    cfg = apply_items(PipelineConfig(), [("run.seed", "5"), ("crf.iters", "3")])
    path = tmp_path / "pipeline.ini"
    save_config(str(path), cfg)
    back = load_config(str(path))
    # nan lambda fields defeat dataclass equality; canonical items cover them
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


def write_spec(tmp_path):
    spec = {
        "category": "table", "legs": 4, "leg_shape": "prism",
        "top_shape": "pinwheel",
        "materials": {"leg": ["metal"], "top": ["wood"]},
        "jitter": 0.0, "seed": 3,
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
    # unreadable spec file
    assert cli.main(["synth", "--spec", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "y")]) == 1


def test_cli_sample_then_infer_smoke(tmp_path):
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
    assert cli.main(["infer", "--shape", str(out)]) == 0
    preds = [json.loads(l) for l in
             (out / "predictions.jsonl").read_text(encoding="utf-8").splitlines()]
    assert len(preds) == load_obj(str(out / "mesh.obj")).n_faces
    assert all(set(p) >= {"face", "top1", "label_set", "marginals"} for p in preds)


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
