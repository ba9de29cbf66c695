import numpy as np
import pytest

from matseg.materials import MATERIALS, MaterialLabelSet
from matseg.synth import (
    CATEGORIES,
    DEFAULT_CONFUSION,
    SynthSpec,
    benchmark_suite,
    corrupt_unaries,
    generate,
    load_spec,
    mirrored_chair_fixture,
    save_spec,
)


def test_generate_every_category_labeled():
    for cat in CATEGORIES:
        mesh = generate(SynthSpec(category=cat, seed=7))
        assert mesh.faces.shape[1] == 3
        assert len(mesh.component_names) > 1
        assert all(lab is not None and len(lab) > 0 for lab in mesh.labels)
        # watertight-ish sanity: every face has positive area
        v = mesh.vertices
        cross = np.cross(v[mesh.faces[:, 1]] - v[mesh.faces[:, 0]],
                         v[mesh.faces[:, 2]] - v[mesh.faces[:, 0]])
        assert np.all(np.linalg.norm(cross, axis=1) > 1e-12)


def test_generate_rejects_unknown_category():
    with pytest.raises(ValueError):
        generate(SynthSpec(category="lamp"))


def test_generate_checks_leg_count():
    for spec in (SynthSpec(category="table", legs=0), SynthSpec(category="chair", legs=-1),
                 SynthSpec(category="cabinet", legs=0), SynthSpec(category="chair", legs=5)):
        with pytest.raises(ValueError, match="legs"):
            generate(spec)
    assert generate(SynthSpec(category="table", legs=6)).component_names.count("leg_5") == 1
    chair = generate(SynthSpec(category="chair", legs=3))
    assert [n for n in chair.component_names if n.startswith("leg")] == ["leg_0", "leg_1", "leg_2"]
    generate(SynthSpec(category="cabinet", legs=3))


def test_generate_deterministic():
    spec = SynthSpec(category="chair", jitter=0.01, seed=12)
    a = generate(spec)
    b = generate(spec)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.faces, b.faces)
    assert a.component_names == b.component_names
    c = generate(SynthSpec(category="chair", jitter=0.01, seed=13))
    assert not np.array_equal(a.vertices, c.vertices)


def test_material_override_applies():
    mesh = generate(SynthSpec(category="table",
                              materials={"top": ["glass"], "leg": ["metal"]},
                              seed=1))
    for comp, lab in zip(mesh.component_names, mesh.labels):
        want = "glass" if comp.startswith("top") else "metal"
        assert set(lab) == {want}


def test_spec_round_trip(tmp_path):
    spec = SynthSpec(category="cabinet", legs=3, leg_shape="box",
                     top_shape="round", materials={"body": ["wood"]},
                     jitter=0.02, seed=9)
    path = tmp_path / "spec.json"
    save_spec(str(path), spec)
    assert load_spec(str(path)) == spec


def test_benchmark_suite_composition():
    specs = benchmark_suite()
    assert len(specs) == 30
    cats = [s.category for s in specs]
    assert cats.count("table") == 12
    assert cats.count("chair") == 12
    assert cats.count("cabinet") == 6
    assert [s.seed for s in specs[:12]] == list(range(100, 112))
    assert [s.seed for s in specs[12:24]] == list(range(150, 162))
    assert [s.seed for s in specs[24:]] == list(range(180, 186))
    for s in specs:
        assert all(len(mats) == 1 for mats in s.materials.values())
    # every spec builds
    for s in specs[::7]:
        generate(s)


def test_mirrored_fixture_halves():
    mesh = mirrored_chair_fixture()
    assert set(mesh.component_names) == {"left", "right"}
    assert np.array_equal(mesh.vertices, mirrored_chair_fixture().vertices)
    # x-extents mirror each other
    left = mesh.vertices[np.unique(mesh.faces[mesh.component_faces("left")])]
    right = mesh.vertices[np.unique(mesh.faces[mesh.component_faces("right")])]
    assert abs(left[:, 0].max() + right[:, 0].min()) < 1e-12
    assert np.all(left[:, 0] > 0) and np.all(right[:, 0] < 0)


def test_confusion_tables_are_stochastic():
    assert DEFAULT_CONFUSION.shape == (5, 5)
    assert np.allclose(DEFAULT_CONFUSION.sum(axis=1), 1.0)
    assert np.all(DEFAULT_CONFUSION >= 0)


def test_corrupt_unaries_clean_rows():
    truths = np.zeros((40, 5))
    truths[np.arange(40), np.tile(np.arange(5), 8)] = 1.0
    probs = corrupt_unaries(truths, 0.0, seed=3)
    assert probs.shape == (40, 5)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    hot = probs.argmax(axis=1)
    assert np.array_equal(hot, truths.argmax(axis=1))
    assert np.allclose(probs[np.arange(40), hot], 0.9)
    off = probs.copy()
    off[np.arange(40), hot] = np.nan
    assert np.allclose(off[~np.isnan(off)], 0.025)


def test_corrupt_unaries_noise_rate():
    rng = np.random.default_rng(0)
    truths = np.zeros((4000, 5))
    truths[np.arange(4000), rng.integers(0, 5, size=4000)] = 1.0
    probs = corrupt_unaries(truths, 1.0, seed=11)
    wrong = probs.argmax(axis=1) != truths.argmax(axis=1)
    # fully noisy anchors follow the confusion rows; diagonal mass keeps
    # some anchors accidentally right
    diag = float(np.mean([DEFAULT_CONFUSION[c, c] for c in range(5)]))
    assert abs(np.mean(~wrong) - diag) < 0.05
    assert np.array_equal(probs, corrupt_unaries(truths, 1.0, seed=11))
    assert not np.array_equal(probs, corrupt_unaries(truths, 1.0, seed=12))


def test_corrupt_unaries_accepts_label_sets():
    sets = [MaterialLabelSet(["wood"]), MaterialLabelSet(["metal", "glass"]),
            MaterialLabelSet(["fabric"])]
    mat = np.array([[1.0 if name in s else 0.0 for name in MATERIALS] for s in sets])
    a = corrupt_unaries(sets, 0.3, seed=5)
    b = corrupt_unaries(mat, 0.3, seed=5)
    assert np.array_equal(a, b)


def test_corrupt_unaries_validates_rate():
    with pytest.raises(ValueError):
        corrupt_unaries(np.eye(5), 1.5)
