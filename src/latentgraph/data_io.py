"""Dataset ingestion, preprocessing, label quantization, and exports."""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import ContractError, DataError, DimensionError, ParseError

logger = logging.getLogger(__name__)

_MISSING_TOKENS = {"", "na", "nan", "+nan", "-nan", "null", "none"}


@dataclass
class TabularDataset:
    """Node table: string ids, float features, dense integer labels."""

    node_ids: list[str]
    X: np.ndarray
    y: Optional[np.ndarray]
    class_names: list[str]
    feature_names: list[str]

    @property
    def n_nodes(self) -> int:
        return self.X.shape[0]


def _is_missing(cell: str) -> bool:
    return cell.strip().lower() in _MISSING_TOKENS


def load_csv(path, id_col: str, label_col: Optional[str] = None,
             feature_cols: Union[Sequence[str], str] = "rest",
             quantize_edges: Optional[Sequence[float]] = None) -> TabularDataset:
    """Parse a headers-first CSV into a TabularDataset.

    ``feature_cols`` may be an explicit list or "rest", meaning every
    column that is neither the id nor the label. ``label_col`` may be
    None for unlabeled files (inductive test sets). Empty, na, null, none
    and NaN cells (nan, +nan, -nan, any case) are missing: rows with a
    missing label are dropped (with a logged count), and missing feature
    cells take the column mean of the present values. Label values are
    mapped to dense integers in [0, C) sorted by value (numerically when
    every label parses as a number); when ``quantize_edges`` is given,
    labels are parsed as floats and binned first. Malformed or infinite
    feature cells raise a ParseError naming the file line and column, as
    does a header that names a column twice, or an explicit feature list
    that names the id or label column, or one column twice.
    """
    path = Path(path)
    try:
        handle = path.open(newline="")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        rows = [row for row in reader if any(cell.strip() for cell in row)]

    index = {name: i for i, name in enumerate(header)}
    if len(index) < len(header):
        twice = next(name for i, name in enumerate(header) if index[name] != i)
        raise ParseError(f"{path}: column {twice!r} is named twice in the header")

    def column(name: str) -> int:
        try:
            return index[name]
        except KeyError:
            raise ParseError(f"{path}: column {name!r} not found in header") from None

    id_idx = column(id_col)
    label_idx = column(label_col) if label_col is not None else None
    if feature_cols == "rest":
        feature_names = [h for i, h in enumerate(header)
                         if i != id_idx and i != label_idx]
    else:
        feature_names = list(feature_cols)
        for name in feature_names:
            if name in (id_col, label_col):
                raise ParseError(
                    f"{path}: feature column {name!r} is the id or label column")
            if feature_names.count(name) > 1:
                raise ParseError(f"{path}: feature column {name!r} is named twice")
    feature_idx = [column(name) for name in feature_names]
    if not feature_names:
        raise ParseError(f"{path}: no feature columns selected")

    node_ids: list[str] = []
    raw_labels: list[str] = []
    cells: list[list[float]] = []
    dropped = 0
    for line_no, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ParseError(
                f"{path} line {line_no}: expected {len(header)} cells, got {len(row)}")
        if label_idx is not None and _is_missing(row[label_idx]):
            dropped += 1
            continue
        parsed = []
        for name, i in zip(feature_names, feature_idx):
            cell = row[i].strip()
            if _is_missing(cell):
                parsed.append(np.nan)
                continue
            try:
                parsed.append(float(cell))
            except ValueError:
                raise ParseError(
                    f"{path} line {line_no}, column {name!r}: "
                    f"non-numeric value {cell!r}") from None
            if np.isinf(parsed[-1]):
                raise ParseError(
                    f"{path} line {line_no}, column {name!r}: infinite value {cell!r}")
        node_ids.append(row[id_idx].strip())
        if label_idx is not None:
            raw_labels.append(row[label_idx].strip())
        cells.append(parsed)
    if dropped:
        logger.warning("%s: dropped %d rows with missing label", path, dropped)

    x = np.array(cells, dtype=np.float64).reshape(len(cells), len(feature_names))
    for j in range(x.shape[1]):
        missing = np.isnan(x[:, j])
        if not missing.any():
            continue
        present = x[~missing, j]
        fill = float(present.mean()) if present.size else 0.0
        if not present.size:
            logger.warning("%s: column %r has no values, imputing 0",
                           path, feature_names[j])
        x[missing, j] = fill

    if label_idx is None:
        return TabularDataset(node_ids=node_ids, X=x, y=None,
                              class_names=[], feature_names=feature_names)

    if quantize_edges is not None:
        try:
            label_values = np.array([float(v) for v in raw_labels])
        except ValueError as exc:
            raise ParseError(f"{path}: non-numeric label with quantization "
                             f"requested: {exc}") from None
        y = quantize_labels(label_values, quantize_edges)
        edges = list(quantize_edges)
        class_names = [f"[{edges[b]}, {edges[b + 1]})" for b in range(len(edges) - 1)]
    else:
        try:
            numeric = [float(v) for v in raw_labels]
            ordered = sorted(set(numeric))
            mapping = {v: i for i, v in enumerate(ordered)}
            y = np.array([mapping[v] for v in numeric], dtype=np.intp)
            class_names = [format(v, "g") for v in ordered]
        except ValueError:
            ordered_names = sorted(set(raw_labels))
            name_map = {v: i for i, v in enumerate(ordered_names)}
            y = np.array([name_map[v] for v in raw_labels], dtype=np.intp)
            class_names = ordered_names
    return TabularDataset(node_ids=node_ids, X=x, y=y,
                          class_names=class_names, feature_names=feature_names)


def quantize_labels(values, edges) -> np.ndarray:
    """Bin continuous values into integer labels.

    Bin b covers [edges[b], edges[b+1]); the top bin additionally
    includes its right edge. NaN and values outside [edges[0], edges[-1]]
    raise a DataError listing the offenders.
    """
    values = np.asarray(values, dtype=np.float64)
    edges = np.asarray(edges, dtype=np.float64)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ContractError("edges must be a strictly increasing 1-D sequence")
    out_of_range = ~((values >= edges[0]) & (values <= edges[-1]))  # NaN too
    if out_of_range.any():
        offenders = np.asarray(values)[out_of_range]
        raise DataError(
            f"values outside [{edges[0]}, {edges[-1]}]: "
            f"{offenders[:10].tolist()}")
    bins = np.searchsorted(edges, values, side="right") - 1
    return np.minimum(bins, edges.size - 2).astype(np.intp)


def standardize(x, reference=None) -> np.ndarray:
    """Zero-mean unit-variance columns; constant columns become zeros.

    The column moments come from ``reference`` (default: ``x`` itself),
    so held-out rows can be scaled with the moments of the training rows
    alone; columns constant in ``reference`` become zeros in ``x``.
    """
    x = np.asarray(x, dtype=np.float64)
    ref = x if reference is None else np.asarray(reference, dtype=np.float64)
    if ref.shape[0] < 2:
        raise ContractError("standardize needs at least 2 rows")
    if ref.shape[1:] != x.shape[1:]:
        raise DimensionError(
            f"reference shape {ref.shape} does not match rows {x.shape}")
    mean = ref.mean(axis=0)
    std = ref.std(axis=0)
    constant = std == 0.0
    if constant.any():
        logger.warning("standardize: %d constant column(s) mapped to zero",
                       int(constant.sum()))
    safe_std = np.where(constant, 1.0, std)
    out = (x - mean) / safe_std
    out[:, constant] = 0.0
    return out


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and ``rows`` as CSV, quoting the fields that need it
    (a quantized class name such as ``[60.0, 70.0)`` holds a comma) and
    ending every line with a newline alone."""
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def export_adjacency(adjacency, node_ids: Sequence[str], path) -> None:
    """Dense CSV dump with id header row/column, 6 significant digits."""
    adjacency = np.asarray(adjacency)
    n = len(node_ids)
    if adjacency.shape != (n, n):
        raise DimensionError(
            f"adjacency shape {adjacency.shape} does not match {n} node ids")
    write_csv(path, ["id", *node_ids],
              ([node_id, *(format(v, ".6g") for v in row)]
               for node_id, row in zip(node_ids, adjacency)))


def write_history_csv(path, history) -> None:
    """Per-epoch training log: epoch, lr, loss, train_acc, val_acc.

    Loss and accuracies come from the epoch's forward pass, before its
    Adam step: they score the parameters the epoch started with.
    """
    write_csv(path, ["epoch", "lr", "loss", "train_acc", "val_acc"],
              ([r.epoch, format(r.lr, ".10g"), format(r.loss, ".10g"),
                format(r.train_acc, ".10g"),
                "" if r.val_acc is None else format(r.val_acc, ".10g")]
               for r in history))


def write_metrics_json(path, payload: dict) -> None:
    """Deterministic JSON dump (sorted keys, fixed indentation)."""
    path = Path(path)
    with path.open("w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
