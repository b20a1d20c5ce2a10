"""Dataset construction, CSV ingestion, and synthetic label-noise injection.

Datasets carry the observed labels next to the hidden true labels, whose
difference is the per-sample noise mask, so selection precision/recall can
be measured against ground truth. ``apply_noise`` is the one noise injector:
it returns a new dataset and never mutates its input.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ParseError, StateError

BLOB_RADIUS = 2.0


@dataclass
class NoisyDataset:
    features: np.ndarray      # (n, d) float
    labels: np.ndarray        # observed labels, (n,) int
    true_labels: np.ndarray   # hidden ground truth, (n,) int
    num_classes: int
    class_names: list | None = None  # CSV token map, first-appearance order

    def __post_init__(self):
        n = len(self.features)
        if not (len(self.labels) == len(self.true_labels) == n):
            raise ValueError("dataset arrays misaligned")
        if n and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("observed label out of range")
        if n and (self.true_labels.min() < 0 or self.true_labels.max() >= self.num_classes):
            raise ValueError("true label out of range")

    @property
    def mask(self) -> np.ndarray:
        """(n,) bool, True where the observed label is not the true one."""
        return self.labels != self.true_labels

    @property
    def n(self) -> int:
        return len(self.features)

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class NoiseSpec:
    kind: str = "none"        # "symmetric" | "asymmetric" | "none"
    eta: float = 0.0
    mapping: dict | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("symmetric", "asymmetric", "none"):
            raise ConfigError(f"unknown noise kind: {self.kind!r}")
        if self.seed < 0:
            raise ConfigError(f"noise.seed must be >= 0, got {self.seed}")
        if self.mapping is not None and self.kind != "asymmetric":
            raise ConfigError(f"a class mapping needs asymmetric noise, got kind {self.kind!r}")
        if self.kind == "none" and self.eta != 0:
            raise ConfigError(
                "a noise rate needs symmetric or asymmetric noise, got kind 'none'")
        if self.kind == "symmetric" and not 0.0 <= self.eta < 1.0:
            raise ConfigError(f"symmetric noise rate must be in [0, 1), got {self.eta}")
        if self.kind == "asymmetric":
            if not 0.0 <= self.eta < 0.5:
                raise ConfigError(
                    f"asymmetric noise rate must be below the theoretical limit of 0.5, got {self.eta}")
            if not self.mapping:
                raise ConfigError("asymmetric noise needs a class mapping")
            for src, dst in self.mapping.items():
                if src == dst:
                    raise ConfigError(f"asymmetric mapping {src}->{dst} maps a class to itself")


def _clean(features, labels, num_classes, class_names=None) -> NoisyDataset:
    labels = np.asarray(labels, dtype=int)
    return NoisyDataset(features=np.asarray(features, dtype=float),
                        labels=labels, true_labels=labels.copy(),
                        num_classes=num_classes, class_names=class_names)


def make_synthetic_dataset(kind, n, classes, spread, seed) -> NoisyDataset:
    """Balanced 2-D toy dataset; ``blobs`` puts class centers on a circle,
    ``moons`` is the usual pair of interleaved half circles. The caller
    checks the sizes: a config's ``DatasetSpec``, or the ``noise`` command."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % classes
    if kind == "blobs":
        angles = 2.0 * np.pi * np.arange(classes) / classes
        centers = BLOB_RADIUS * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        feats = centers[labels] + rng.normal(scale=spread, size=(n, 2))
    elif kind == "moons":
        t = rng.uniform(0.0, np.pi, size=n)
        upper = np.stack([np.cos(t), np.sin(t)], axis=1)
        lower = np.stack([1.0 - np.cos(t), 0.5 - np.sin(t)], axis=1)
        feats = np.where((labels == 0)[:, None], upper, lower)
        feats = feats + rng.normal(scale=spread, size=(n, 2))
    else:
        raise ConfigError(f"unknown synthetic dataset kind: {kind!r}")
    return _clean(feats, labels, classes)


def read_text(path, what) -> str:
    """The text of the UTF-8 file at ``path``, without a leading byte order
    mark; the package's only file reader."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def _csv_records(text, path):
    """The records of CSV ``text``; a malformed one is a parse error naming
    ``path`` and the line the reader stopped at."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(str(exc), row=reader.line_num, path=path) from None


def load_csv_dataset(path, class_names=None) -> NoisyDataset:
    """UTF-8 CSV with a header row: feature columns, then a final ``label`` column.

    Label tokens map to class indices in first-appearance order, or through
    ``class_names`` when given (a test set takes its training set's names),
    in which case an unknown token is a parse error. Parse failures name the
    file and the offending 1-based file row.
    """
    reader = _csv_records(read_text(path, "dataset"), path)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty file", row=1, path=path) from None
    if len(header) < 2:
        raise ParseError("need at least one feature column and a label column",
                         row=1, path=path)
    if header[-1].strip() != "label":
        raise ParseError(f"last column must be named 'label', got {header[-1]!r}",
                         row=1, path=path)
    d = len(header) - 1
    feats, tokens = [], []
    token_index = {name: c for c, name in enumerate(class_names or ())}
    for row_no, row in enumerate(reader, start=2):
        if len(row) != d + 1:
            raise ParseError(f"expected {d + 1} columns, got {len(row)}", row=row_no, path=path)
        vals = []
        for col, cell in zip(header[:-1], row[:-1]):
            cell = cell.strip()
            if not cell:
                raise ParseError(f"missing value in column {col!r}", row=row_no, path=path)
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(f"non-numeric value {cell!r} in column {col!r}",
                                 row=row_no, path=path) from None
            if not math.isfinite(value):
                raise ParseError(f"non-finite value {cell!r} in column {col!r}",
                                 row=row_no, path=path)
            vals.append(value)
        token = row[-1].strip()
        if not token:
            raise ParseError("missing label", row=row_no, path=path)
        if token not in token_index:
            if class_names is not None:
                raise ParseError(f"label {token!r} is not a training class "
                                 f"{list(class_names)}", row=row_no, path=path)
            token_index[token] = len(token_index)
        feats.append(vals)
        tokens.append(token)
    if not feats:
        raise ParseError("no data rows", row=1, path=path)
    labels = np.array([token_index[t] for t in tokens], dtype=int)
    return _clean(np.array(feats), labels, len(token_index), class_names=list(token_index))


def dataset_csv_text(ds: NoisyDataset) -> str:
    """Inverse of :func:`load_csv_dataset`; observed labels only."""
    names = ds.class_names or [str(c) for c in range(ds.num_classes)]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([f"x{j}" for j in range(ds.dim)] + ["label"])
    for x, y in zip(ds.features, ds.labels):
        writer.writerow([format(v, ".17g") for v in x] + [names[y]])
    return buf.getvalue()


def apply_noise(ds: NoisyDataset, spec: NoiseSpec) -> NoisyDataset:
    """``ds`` with ``spec``'s label noise drawn over its true labels.

    Symmetric noise flips each label with probability eta to a class uniform
    over the others, so the total flip probability is exactly eta;
    asymmetric noise flips samples of each mapped class to its target with
    probability eta. A dataset that already carries noise is refused.
    """
    if spec.kind == "none":
        return ds
    for src, dst in (spec.mapping or {}).items():
        if not (0 <= src < ds.num_classes and 0 <= dst < ds.num_classes):
            raise ConfigError(f"mapping {src}->{dst} outside class range [0, {ds.num_classes})")
    if ds.mask.any():
        raise StateError("dataset already carries injected noise; re-injection is not allowed")
    rng = np.random.default_rng(spec.seed)
    flip = rng.random(ds.n) < spec.eta
    labels = ds.true_labels.copy()
    if spec.kind == "symmetric":
        offsets = rng.integers(1, ds.num_classes, size=ds.n)
        labels[flip] = (labels[flip] + offsets[flip]) % ds.num_classes
    else:
        for src, dst in sorted(spec.mapping.items()):
            labels[flip & (ds.true_labels == src)] = dst
    return replace(ds, labels=labels)


def noise_sidecar(spec: NoiseSpec, flipped_count) -> dict:
    """Provenance record written next to noised dataset files."""
    return {
        "kind": spec.kind,
        "eta": spec.eta,
        "mapping": None if spec.mapping is None
        else {str(k): int(v) for k, v in sorted(spec.mapping.items())},
        "seed": spec.seed,
        "flipped_count": int(flipped_count),
    }
