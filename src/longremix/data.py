"""Dataset construction, CSV ingestion, and synthetic label-noise injection.

Datasets carry the observed labels next to the hidden true labels, whose
difference is the per-sample noise mask, so selection precision/recall can
be measured against ground truth. ``apply_noise`` is the one noise injector:
it returns a new dataset and never mutates its input. The input rules live
here too: ``DatasetSpec`` and ``NoiseSpec`` hold the rules of a dataset and
of its noise, and ``training_sets`` those of a run's training and test sets.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ParseError, StateError
from .gmm import MIN_FIT_SAMPLES

BLOB_RADIUS = 2.0
# The largest count an input may give: dataset rows, a hidden layer's width,
# Monte-Carlo trials. numpy can size an array of that many rows of 64 float64
# values, so a count too large for memory fails as MemoryError (exit 3); far
# past it numpy raises a ValueError of its own instead.
MAX_COUNT = 2**53


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
class DatasetSpec:
    kind: str = "blobs"      # blobs | moons | csv
    n: int = 2000
    test_n: int = 1000
    classes: int = 16
    spread: float = 0.15
    path: str = ""           # csv only
    test_path: str = ""      # csv only

    def __post_init__(self):
        if self.kind not in ("blobs", "moons", "csv"):
            raise ConfigError(f"unknown dataset kind: {self.kind!r}")
        if self.kind == "csv":
            if not self.path:
                raise ConfigError("dataset.path is required for csv datasets")
            if not self.test_path:
                raise ConfigError("dataset.test_path is required for csv training runs")
            return
        if self.classes < 2:
            raise ConfigError(f"dataset.classes must be >= 2, got {self.classes}")
        if self.kind == "moons" and self.classes != 2:
            raise ConfigError(f"dataset.kind = moons needs dataset.classes = 2, "
                              f"got {self.classes}")
        if not (math.isfinite(self.spread) and self.spread > 0):
            raise ConfigError(f"dataset.spread must be finite and positive, got {self.spread}")
        for key in ("n", "test_n"):
            value = getattr(self, key)
            if value < self.classes:
                raise ConfigError(f"dataset.{key} must be >= dataset.classes "
                                  f"({self.classes}), got {value}")
            if value > MAX_COUNT:
                raise ConfigError(f"dataset.{key} must be <= {MAX_COUNT}, got {value}")


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
    ``moons`` is the usual pair of interleaved half circles. ``DatasetSpec``
    checks the kind and the sizes first, for a config file and the ``noise``
    command's flags alike."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % classes
    if kind == "blobs":
        angles = 2.0 * np.pi * np.arange(classes) / classes
        centers = BLOB_RADIUS * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        feats = centers[labels] + rng.normal(scale=spread, size=(n, 2))
    else:  # moons
        t = rng.uniform(0.0, np.pi, size=n)
        upper = np.stack([np.cos(t), np.sin(t)], axis=1)
        lower = np.stack([1.0 - np.cos(t), 0.5 - np.sin(t)], axis=1)
        feats = np.where((labels == 0)[:, None], upper, lower)
        feats = feats + rng.normal(scale=spread, size=(n, 2))
    return _clean(feats, labels, classes)


def training_sets(exp, fits_mixture) -> tuple[NoisyDataset, NoisyDataset]:
    """The noised training set and the test set of experiment config ``exp``.

    A CSV training set needs at least 2 classes, and its test file as many
    feature columns. A synthetic test set is drawn from the data seed plus
    1000003. When the run fits the per-epoch loss mixture
    (``fits_mixture``), the training set needs ``MIN_FIT_SAMPLES`` rows.
    """
    d = exp.dataset
    if d.kind == "csv":
        train = load_csv_dataset(d.path)
        if train.num_classes < 2:
            raise ConfigError(f"{d.path}: every training label is {train.class_names[0]!r}; "
                              "training needs at least 2 classes")
        test = load_csv_dataset(d.test_path, class_names=train.class_names)
        if test.dim != train.dim:
            raise ConfigError(f"{d.test_path} has {test.dim} feature columns, "
                              f"but the training set {d.path} has {train.dim}")
    else:
        seed = exp.train.data_seed
        train = make_synthetic_dataset(d.kind, d.n, d.classes, d.spread, seed=seed)
        test = make_synthetic_dataset(d.kind, d.test_n, d.classes, d.spread,
                                      seed=seed + 1000003)
    noisy = apply_noise(train, exp.noise)
    if fits_mixture and noisy.n < MIN_FIT_SAMPLES:
        source = d.path if d.kind == "csv" else "dataset.n"
        raise ConfigError(f"{source}: {noisy.n} training rows; the loss mixture needs "
                          f"at least {MIN_FIT_SAMPLES}")
    return noisy, test


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
