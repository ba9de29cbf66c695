"""Retrieval and classification metrics.

precision@k runs against a class-balanced database in descriptor space;
top-1 accuracy and confusion matrices honor multi-label ground truth: a
point with several true materials contributes to each of their rows.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentError, InvalidKError
from .jsonl import write_json
from .materials import MATERIALS

DEFAULT_KS = (1, 30, 100)


def balance_database(db_labels: np.ndarray, seed: int = 0) -> np.ndarray:
    """Indices of a subset where every present class appears equally often.

    Each class is subsampled (seeded, without replacement) to the smallest
    per-class count; a multi-label point kept for any of its classes stays
    in once.
    """
    db_labels = np.asarray(db_labels)
    counts = db_labels.sum(axis=0)
    present = np.flatnonzero(counts > 0)
    if len(present) == 0:
        return np.arange(len(db_labels))
    low = int(counts[present].min())
    rng = np.random.default_rng(seed)
    keep: set[int] = set()
    for c in present:
        members = np.flatnonzero(db_labels[:, c] > 0)
        chosen = rng.choice(members, size=low, replace=False)
        keep.update(int(i) for i in chosen)
    return np.array(sorted(keep), dtype=np.int64)


def precision_at_k(
    query_desc: np.ndarray,
    query_labels: np.ndarray,
    db_desc: np.ndarray,
    db_labels: np.ndarray,
    k: int,
    seed: int = 0,
    balance: bool = True,
) -> tuple[np.ndarray, float]:
    """Per-class and mean precision of k-nearest retrieval.

    A retrieved neighbor counts when it shares any ground-truth label with
    the query. The per-class figure averages over queries whose truth set
    contains that class (NaN when no such query exists); the mean is the
    unweighted average over non-NaN classes. Distance ties resolve by
    database index.
    """
    query_desc = np.asarray(query_desc, dtype=np.float64)
    query_labels = np.asarray(query_labels, dtype=np.float64)
    db_desc = np.asarray(db_desc, dtype=np.float64)
    db_labels = np.asarray(db_labels, dtype=np.float64)
    if len(query_desc) != len(query_labels) or len(db_desc) != len(db_labels):
        raise AlignmentError("descriptor/label lengths differ")
    if balance:
        keep = balance_database(db_labels, seed=seed)
        db_desc = db_desc[keep]
        db_labels = db_labels[keep]
    if k < 1:
        raise InvalidKError(f"k={k} must be at least 1")
    if k > len(db_desc):
        raise InvalidKError(f"k={k} exceeds database size {len(db_desc)}")

    d2 = ((query_desc[:, None, :] - db_desc[None, :, :]) ** 2).sum(axis=2)
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    shares = (query_labels @ db_labels.T) > 0
    hits = np.take_along_axis(shares, order, axis=1).mean(axis=1)

    return _per_class_mean(hits, query_labels)


def top1_accuracy(predictions: np.ndarray, truths: np.ndarray) -> tuple[np.ndarray, float]:
    """Multi-label top-1 accuracy per class and unweighted mean.

    A point scores 1 when its predicted material lies in its truth set, and
    that score enters the average of every class in the truth set.
    """
    predictions = np.asarray(predictions, dtype=np.int64)
    truths = np.asarray(truths, dtype=np.float64)
    if len(predictions) != len(truths):
        raise AlignmentError(
            f"{len(predictions)} predictions vs {len(truths)} ground-truth rows"
        )
    return _per_class_mean(truths[np.arange(len(predictions)), predictions] > 0, truths)


def _per_class_mean(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, float]:
    """Per class, the mean score of the rows whose labels hold it (NaN when
    none does), and the unweighted mean over the classes that have rows."""
    per_class = np.full(labels.shape[1], np.nan)
    for c in range(labels.shape[1]):
        members = labels[:, c] > 0
        if members.any():
            per_class[c] = float(scores[members].mean())
    mean = float(np.nanmean(per_class)) if np.any(~np.isnan(per_class)) else float("nan")
    return per_class, mean


def confusion_matrix(predictions: np.ndarray, truths: np.ndarray) -> np.ndarray:
    """Row-normalized confusion with rows = truth, columns = prediction.

    Multi-label points spread unit mass evenly across their truth rows.
    """
    predictions = np.asarray(predictions, dtype=np.int64)
    truths = np.asarray(truths, dtype=np.float64)
    if len(predictions) != len(truths):
        raise AlignmentError(
            f"{len(predictions)} predictions vs {len(truths)} ground-truth rows"
        )
    n_classes = truths.shape[1]
    mat = np.zeros((n_classes, n_classes))
    for i in range(len(predictions)):
        rows = np.flatnonzero(truths[i] > 0)
        if len(rows) == 0:
            continue
        mat[rows, predictions[i]] += 1.0 / len(rows)
    sums = mat.sum(axis=1, keepdims=True)
    return np.divide(mat, sums, out=np.zeros_like(mat), where=sums > 0)


@dataclass
class EvalReport:
    """Precision@k tables, top-1 accuracies, and the confusion matrix."""

    precision: dict[int, tuple[np.ndarray, float]] = field(default_factory=dict)
    top1: tuple[np.ndarray, float] | None = None
    confusion: np.ndarray | None = None

    def to_obj(self) -> dict:
        def table(per_class, mean):  # NaN (no member of a class) as null
            clean = [None if np.isnan(x) else float(x) for x in (*per_class, mean)]
            return {"per_class": dict(zip(MATERIALS, clean[:-1])), "mean": clean[-1]}

        obj: dict = {"materials": list(MATERIALS)}
        obj["precision_at_k"] = {str(k): table(*v) for k, v in sorted(self.precision.items())}
        if self.top1 is not None:
            obj["top1_accuracy"] = table(*self.top1)
        if self.confusion is not None:
            obj["confusion"] = [[float(x) for x in row] for row in self.confusion]
        return obj

    def save_json(self, path: str) -> None:
        write_json(path, self.to_obj())

    def save_csv(self, basepath: str) -> None:
        """One CSV per table: <base>_precision.csv, _top1.csv, _confusion.csv."""
        def cells(*values):  # NaN (no member of a class) as an empty cell
            return ["" if np.isnan(x) else f"{x:.6f}" for x in values]

        tables = {}
        if self.precision:
            tables["precision"] = [["k", *MATERIALS, "mean"]] + [
                [k, *cells(*per_class, mean)] for k, (per_class, mean) in sorted(self.precision.items())]
        if self.top1 is not None:
            tables["top1"] = [[*MATERIALS, "mean"], cells(*self.top1[0], self.top1[1])]
        if self.confusion is not None:
            tables["confusion"] = [["truth\\pred", *MATERIALS]] + [
                [m, *cells(*row)] for m, row in zip(MATERIALS, self.confusion)]
        for name, rows in tables.items():
            with open(f"{basepath}_{name}.csv", "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows(rows)


def build_report(
    descriptors: np.ndarray,
    desc_truths: np.ndarray,
    predictions: np.ndarray | None,
    pred_truths: np.ndarray | None,
    ks=DEFAULT_KS,
    seed: int = 0,
) -> EvalReport:
    """Assemble the full report; retrieval treats the points as both queries
    and database (class-balanced)."""
    report = EvalReport()
    for k in ks:
        report.precision[int(k)] = precision_at_k(
            descriptors, desc_truths, descriptors, desc_truths, int(k), seed=seed
        )
    if predictions is not None and pred_truths is not None:
        report.top1 = top1_accuracy(predictions, pred_truths)
        report.confusion = confusion_matrix(predictions, pred_truths)
    return report
