import csv
import json
import math

import numpy as np
import pytest

from matseg.errors import AlignmentError, InvalidKError
from matseg.evaluation import (
    balance_database,
    build_report,
    confusion_matrix,
    precision_at_k,
    top1_accuracy,
)
from matseg.materials import MATERIALS, MaterialLabelSet, multihot as encode_labels


def multihot(*rows):
    out = np.zeros((len(rows), 5))
    for i, cols in enumerate(rows):
        for c in cols:
            out[i, c] = 1.0
    return out


# frozen straight-line references; loops and comparison-sorting only, but the
# final per-class aggregation shares numpy's reduction so means agree bitwise

def ref_precision_at_k(qd, ql, dd, dl, k):
    per_query = []
    for i in range(len(qd)):
        scored = sorted(range(len(dd)),
                        key=lambda j: (sum((qd[i][c] - dd[j][c]) ** 2 for c in range(qd.shape[1])), j))
        hits = 0
        for j in scored[:k]:
            if any(ql[i][c] > 0 and dl[j][c] > 0 for c in range(ql.shape[1])):
                hits += 1
        per_query.append(hits / k)
    per_class = []
    for c in range(ql.shape[1]):
        vals = [per_query[i] for i in range(len(qd)) if ql[i][c] > 0]
        per_class.append(float(np.mean(vals)) if vals else math.nan)
    return np.array(per_class), float(np.nanmean(np.array(per_class)))


def ref_top1(preds, truths):
    per_class = []
    for c in range(truths.shape[1]):
        vals = [1.0 if truths[i][preds[i]] > 0 else 0.0
                for i in range(len(preds)) if truths[i][c] > 0]
        per_class.append(float(np.mean(vals)) if vals else math.nan)
    return np.array(per_class), float(np.nanmean(np.array(per_class)))


def ref_confusion(preds, truths):
    n = truths.shape[1]
    mat = [[0.0] * n for _ in range(n)]
    for i in range(len(preds)):
        rows = [c for c in range(n) if truths[i][c] > 0]
        for c in rows:
            mat[c][preds[i]] += 1.0 / len(rows)
    for c in range(n):
        s = sum(mat[c])
        if s > 0:
            mat[c] = [v / s for v in mat[c]]
    return np.array(mat)


def test_precision_tiny_hand_case():
    qd = np.array([[0.0], [1.0]])
    dd = np.array([[0.1], [0.9], [2.0]])
    ql = multihot((0,), (2,))
    dl = multihot((0,), (2,), (0,))
    pc, mean = precision_at_k(qd, ql, dd, dl, 1, balance=False)
    assert pc[0] == 1.0 and pc[2] == 1.0 and mean == 1.0
    assert np.all(np.isnan(pc[[1, 3, 4]]))
    pc2, mean2 = precision_at_k(qd, ql, dd, dl, 2, balance=False)
    # each query finds exactly one of its two nearest sharing a material
    assert pc2[0] == 0.5 and pc2[2] == 0.5 and mean2 == 0.5


def test_precision_ties_resolve_by_database_index():
    qd = np.array([[0.0]])
    dd = np.array([[1.0], [-1.0], [1.0]])
    ql = multihot((0,))
    dl = multihot((2,), (0,), (2,))
    # all three candidates are equidistant; k=2 must take indices 0 and 1
    pc, _ = precision_at_k(qd, ql, dd, dl, 2, balance=False)
    assert pc[0] == 0.5


def test_precision_invalid_inputs():
    qd = np.zeros((2, 3))
    dd = np.zeros((4, 3))
    ql = multihot((0,), (1,))
    dl = multihot((0,), (1,), (2,), (3,))
    with pytest.raises(InvalidKError):
        precision_at_k(qd, ql, dd, dl, 5, balance=False)
    with pytest.raises(InvalidKError):
        precision_at_k(qd, ql, dd, dl, 0, balance=False)
    with pytest.raises(AlignmentError):
        precision_at_k(qd, ql[:1], dd, dl, 1, balance=False)
    with pytest.raises(AlignmentError):
        precision_at_k(qd, ql, dd, dl[:2], 1, balance=False)


def test_precision_invariant_to_database_order():
    rng = np.random.default_rng(77)
    qd = rng.normal(size=(20, 4))
    dd = rng.normal(size=(30, 4))
    ql = np.zeros((20, 5))
    ql[np.arange(20), rng.integers(0, 5, size=20)] = 1.0
    dl = np.zeros((30, 5))
    dl[np.arange(30), rng.integers(0, 5, size=30)] = 1.0
    pc, mean = precision_at_k(qd, ql, dd, dl, 3, balance=False)
    perm = rng.permutation(30)
    pc2, mean2 = precision_at_k(qd, ql, dd[perm], dl[perm], 3, balance=False)
    nz = ~np.isnan(pc)
    assert np.array_equal(pc[nz], pc2[nz]) and mean == mean2


def test_balance_database_properties():
    dl = multihot((0,), (0,), (0,), (2,), (2,), (4,))
    keep = balance_database(dl, seed=3)
    assert np.array_equal(keep, balance_database(dl, seed=3))
    counts = dl[keep].sum(axis=0)
    assert counts[0] == counts[2] == counts[4] == 1
    assert set(keep) <= set(range(6))
    # different seeds may pick different wood representatives
    picks = {tuple(balance_database(dl, seed=s)) for s in range(20)}
    assert len(picks) > 1


def test_top1_hand_case():
    preds = np.array([0, 2, 2])
    truths = multihot((0, 2), (2,), (0,))
    pc, mean = top1_accuracy(preds, truths)
    # wood row sees points 0 (hit) and 2 (miss); metal row sees 0 and 1, both hits
    assert pc[0] == 0.5 and pc[2] == 1.0
    assert np.all(np.isnan(pc[[1, 3, 4]]))
    assert mean == np.nanmean(np.array([0.5, math.nan, 1.0, math.nan, math.nan]))


def test_confusion_hand_case():
    preds = np.array([2, 0])
    truths = multihot((0, 2), (0,))
    cm = confusion_matrix(preds, truths)
    assert cm.shape == (5, 5)
    # wood truth mass: half a count to pred metal, one full count to pred wood
    assert np.allclose(cm[0], [2 / 3, 0, 1 / 3, 0, 0])
    assert np.allclose(cm[2], [0, 0, 1, 0, 0])
    assert np.all(cm[[1, 3, 4]] == 0)


def test_metrics_match_reference_implementations():
    for i in range(2):
        rng = np.random.default_rng(900 + i)
        qd = rng.normal(size=(50, 8))
        dd = rng.normal(size=(50, 8))
        ql = np.zeros((50, 5))
        dl = np.zeros((50, 5))
        for lab in (ql, dl):
            lab[np.arange(50), rng.integers(0, 5, size=50)] = 1.0
            for j in rng.choice(50, size=8, replace=False):
                lab[j, int(rng.integers(0, 5))] = 1.0
        preds = rng.integers(0, 5, size=50)
        k = int(rng.integers(1, 6))

        keep = balance_database(dl, seed=i)
        pc, mean = precision_at_k(qd, ql, dd, dl, k, seed=i, balance=True)
        rpc, rmean = ref_precision_at_k(qd, ql, dd[keep], dl[keep], k)
        assert np.array_equal(np.isnan(pc), np.isnan(rpc))
        assert np.array_equal(pc[~np.isnan(pc)], rpc[~np.isnan(rpc)])
        assert mean == rmean

        t1, tm = top1_accuracy(preds, ql)
        rt1, rtm = ref_top1(preds, ql)
        assert np.array_equal(t1[~np.isnan(t1)], rt1[~np.isnan(rt1)]) and tm == rtm

        assert np.array_equal(confusion_matrix(preds, ql), ref_confusion(preds, ql))


def test_labels_to_multihot():
    rows = [MaterialLabelSet(["wood"]), MaterialLabelSet(["metal", "glass"]),
            MaterialLabelSet()]
    mat = encode_labels(rows)
    assert np.array_equal(mat, multihot((0,), (2, 3), ()))


def test_report_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    desc = rng.normal(size=(40, 8))
    truths = np.zeros((40, 5))
    truths[np.arange(40), rng.integers(0, 5, size=40)] = 1.0
    preds = rng.integers(0, 5, size=40)
    report = build_report(desc, truths, preds, truths, ks=(1, 3), seed=0)

    obj = report.to_obj()
    assert obj["materials"] == list(MATERIALS)
    assert set(obj["precision_at_k"]) == {"1", "3"}
    assert set(obj["precision_at_k"]["1"]["per_class"]) == set(MATERIALS)
    assert set(obj["top1_accuracy"]["per_class"]) == set(MATERIALS)
    assert len(obj["confusion"]) == 5

    report.save_json(str(tmp_path / "report.json"))
    with open(tmp_path / "report.json", encoding="utf-8") as fh:
        assert json.load(fh) == obj

    report.save_csv(str(tmp_path / "report"))
    with open(tmp_path / "report_precision.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", *MATERIALS, "mean"]
    assert [r[0] for r in rows[1:]] == ["1", "3"]
    with open(tmp_path / "report_confusion.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 6 and rows[1][0] == "wood"
    for i, row in enumerate(rows[1:]):
        got = [float(x) for x in row[1:]]
        assert np.allclose(got, report.confusion[i], atol=1e-6)


def test_report_leaves_out_k_beyond_balanced_database():
    # 450 points, the rarest class has 17, so the balanced database holds 85
    rng = np.random.default_rng(11)
    labels = np.repeat(np.arange(5), [172, 142, 95, 24, 17])
    truths = np.zeros((450, 5))
    truths[np.arange(450), labels] = 1.0
    desc = rng.normal(size=(450, 8))
    assert len(balance_database(truths)) == 85

    report = build_report(desc, truths, None, None)
    assert sorted(report.precision) == [1, 30]
    for k in (1, 30):
        want = precision_at_k(desc, truths, desc, truths, k)
        assert np.array_equal(report.precision[k][0], want[0], equal_nan=True)
        assert report.precision[k][1] == want[1]
    with pytest.raises(InvalidKError, match="k=100 exceeds database size 85"):
        precision_at_k(desc, truths, desc, truths, 100)
