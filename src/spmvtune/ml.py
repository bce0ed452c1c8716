"""Feature-based classifiers: CART decision tree and Gaussian naive Bayes.

Both are trained on (feature vector, bottleneck class) samples and kept
deliberately small: greedy Gini splitting with midpoint thresholds for the
tree, per-class Gaussian densities with empirical priors for naive Bayes.
All ties (leaf majorities, equal posteriors) break toward the lower
MatrixClass value so predictions are deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .taxonomy import MatrixClass

MODEL_FORMAT_VERSION = 1
_N_CLASSES = len(MatrixClass)
_GNB_EPSILON = 1e-9  # train_gnb's relative variance smoothing


class ModelFormatError(ValueError):
    """Persisted model file is malformed or has the wrong version."""


@dataclass
class Dataset:
    """Training samples: one row of X and one label per matrix."""

    X: np.ndarray
    labels: list[MatrixClass]
    feature_names: tuple[str, ...]

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=np.float64))
        self.labels = [MatrixClass(l) for l in self.labels]
        self.feature_names = tuple(self.feature_names)
        if self.X.shape[0] != len(self.labels):
            raise ValueError("one label per sample required")
        if self.X.shape[0] < 1:
            raise ValueError("dataset must contain at least one sample")
        if self.X.shape[1] != len(self.feature_names):
            raise ValueError("feature_names must match the vector width")

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def codes(self) -> np.ndarray:
        return np.array([int(l) for l in self.labels], dtype=np.int64)

    def without(self, i: int) -> "Dataset":
        keep = np.arange(self.n_samples) != i
        return Dataset(self.X[keep], [l for j, l in enumerate(self.labels) if j != i],
                       self.feature_names)


@dataclass
class TreeLeaf:
    prediction: MatrixClass
    counts: dict[MatrixClass, int]


@dataclass
class TreeNode:
    feature: int
    threshold: float
    left: "TreeNode | TreeLeaf"
    right: "TreeNode | TreeLeaf"


@dataclass
class DecisionTree:
    root: TreeNode | TreeLeaf
    n_features: int

    def predict(self, x) -> MatrixClass:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_features,):
            raise ValueError(f"expected {self.n_features} features, got {x.shape}")
        node = self.root
        while isinstance(node, TreeNode):
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node.prediction


def _best_split(X: np.ndarray, codes: np.ndarray, min_leaf: int):
    """Lowest weighted-Gini split over all features and midpoint thresholds.

    Ties keep the first candidate found (lowest feature index, then lowest
    threshold).  Returns None when no split leaves both children with at
    least ``min_leaf`` samples.
    """
    n = X.shape[0]
    onehot = np.zeros((n, _N_CLASSES), dtype=np.float64)
    best = None  # (weighted_gini, feature, threshold)
    for f in range(X.shape[1]):
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        if xs[0] == xs[-1]:
            continue
        onehot[:] = 0.0
        onehot[np.arange(n), codes[order]] = 1.0
        prefix = np.cumsum(onehot, axis=0)
        total = prefix[-1]
        ks = np.flatnonzero(xs[:-1] != xs[1:]) + 1  # left sizes at value boundaries
        ks = ks[(ks >= min_leaf) & (n - ks >= min_leaf)]
        if not ks.size:
            continue
        left = prefix[ks - 1]
        right = total - left
        nl = ks.astype(np.float64)[:, None]
        nr = n - nl
        gini_l = 1.0 - ((left / nl) ** 2).sum(axis=1)
        gini_r = 1.0 - ((right / nr) ** 2).sum(axis=1)
        weighted = (nl[:, 0] * gini_l + nr[:, 0] * gini_r) / n
        j = int(np.argmin(weighted))
        if best is None or weighted[j] < best[0]:
            k = int(ks[j])
            best = (float(weighted[j]), f, float((xs[k - 1] + xs[k]) / 2.0))
    return best


def _majority(counts: np.ndarray) -> MatrixClass:
    return MatrixClass(int(np.argmax(counts)))  # first max = lowest class value


def _grow(X, codes, depth, max_depth, min_leaf):
    counts = np.bincount(codes, minlength=_N_CLASSES)
    pure = np.count_nonzero(counts) <= 1
    at_depth_limit = max_depth is not None and depth >= max_depth
    split = None
    if not pure and not at_depth_limit:
        split = _best_split(X, codes, min_leaf)
    if split is None:
        return TreeLeaf(_majority(counts),
                        {c: int(counts[int(c)]) for c in MatrixClass})
    _, f, threshold = split
    go_left = X[:, f] <= threshold
    return TreeNode(f, threshold,
                    _grow(X[go_left], codes[go_left], depth + 1, max_depth, min_leaf),
                    _grow(X[~go_left], codes[~go_left], depth + 1, max_depth, min_leaf))


def train_cart(d: Dataset, max_depth: int | None = None,
               min_leaf: int = 1) -> DecisionTree:
    """Grow a CART-style tree by greedy weighted-Gini minimization.

    Candidate thresholds are midpoints between consecutive distinct sorted
    feature values; growth stops on pure nodes, at the depth limit, or when
    a split would leave a child below ``min_leaf`` samples.  Zero-gain
    splits are taken when available, which is what lets XOR-like label
    patterns resolve at depth 2.
    """
    if min_leaf < 1:
        raise ValueError("min_leaf must be >= 1")
    if max_depth is not None and max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    return DecisionTree(_grow(d.X, d.codes(), 0, max_depth, min_leaf),
                        d.n_features)


@dataclass(eq=False)
class GaussianNB:
    """Per-class Gaussian densities with empirical priors (MAP training)."""

    classes: list[MatrixClass]
    priors: np.ndarray      # (C,)
    means: np.ndarray       # (C, F)
    variances: np.ndarray   # (C, F), smoothed, strictly positive

    def log_scores(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.means.shape[1],):
            raise ValueError(f"expected {self.means.shape[1]} features, got {x.shape}")
        return (np.log(self.priors)
                - 0.5 * (np.log(2.0 * np.pi * self.variances)
                         + (x - self.means) ** 2 / self.variances).sum(axis=1))

    def predict(self, x) -> MatrixClass:
        return self.classes[int(np.argmax(self.log_scores(x)))]


def train_gnb(d: Dataset) -> GaussianNB:
    """Fit class priors plus per-class feature means and variances.

    Variances are population variances plus a smoothing term of
    ``_GNB_EPSILON`` times the largest whole-dataset feature variance
    (``_GNB_EPSILON`` itself when that is zero, floored at 1e-12), so
    zero-variance features cannot produce degenerate densities.
    """
    codes = d.codes()
    present = sorted(set(d.labels))
    max_var = float(d.X.var(axis=0).max()) if d.n_features else 0.0
    smoothing = _GNB_EPSILON * max_var if max_var > 0.0 else _GNB_EPSILON
    smoothing = max(smoothing, 1e-12)

    priors = np.empty(len(present))
    means = np.empty((len(present), d.n_features))
    variances = np.empty((len(present), d.n_features))
    for ci, cls in enumerate(present):
        rows = d.X[codes == int(cls)]
        priors[ci] = rows.shape[0] / d.n_samples
        means[ci] = rows.mean(axis=0)
        variances[ci] = rows.var(axis=0) + smoothing
    return GaussianNB(list(present), priors, means, variances)


def loo_cv(d: Dataset, trainer: Callable[[Dataset], object]):
    """Leave-one-out cross validation.

    Trains ``n`` models, each on all samples but one, and predicts the
    held-out sample.  Returns ``(accuracy, predictions)`` where accuracy is
    the fraction of correct predictions.
    """
    if d.n_samples < 2:
        raise ValueError("leave-one-out needs at least 2 samples")
    predictions = []
    for i in range(d.n_samples):
        model = trainer(d.without(i))
        predictions.append(model.predict(d.X[i]))
    correct = sum(p == l for p, l in zip(predictions, d.labels))
    return correct / d.n_samples, predictions


# ---------------------------------------------------------------------------
# Persistence: versioned JSON with full-precision floats.
# ---------------------------------------------------------------------------

@dataclass
class TrainedModel:
    kind: str  # "tree" | "gnb"
    feature_names: tuple[str, ...]
    model: DecisionTree | GaussianNB

    def __post_init__(self):
        self.feature_names = tuple(self.feature_names)
        if self.kind not in ("tree", "gnb"):
            raise ValueError(f"unknown model kind {self.kind!r}")

    def predict(self, x) -> MatrixClass:
        return self.model.predict(x)


def _node_to_dict(node):
    if isinstance(node, TreeLeaf):
        return {"class": node.prediction.name,
                "counts": {c.name: node.counts.get(c, 0) for c in MatrixClass}}
    return {"feature": node.feature, "threshold": node.threshold,
            "left": _node_to_dict(node.left), "right": _node_to_dict(node.right)}


def _node_from_dict(d, n_features: int):
    try:
        if "class" in d:
            return TreeLeaf(MatrixClass[d["class"]],
                            {MatrixClass[k]: int(v) for k, v in d["counts"].items()})
        feature = int(d["feature"])
        if not 0 <= feature < n_features:
            raise ModelFormatError(f"tree node feature {feature} outside "
                                   f"[0, {n_features})")
        return TreeNode(feature, float(d["threshold"]),
                        _node_from_dict(d["left"], n_features),
                        _node_from_dict(d["right"], n_features))
    except (KeyError, TypeError) as exc:
        raise ModelFormatError(f"malformed tree node: {exc}") from exc


def _check_gnb(m: GaussianNB, n_features: int) -> None:
    shape = (len(m.classes), n_features)
    if (m.priors.shape != shape[:1] or m.means.shape != shape
            or m.variances.shape != shape):
        raise ModelFormatError("gnb parameter shapes do not match classes x "
                               "feature_names")
    for name in ("priors", "variances"):
        v = getattr(m, name)
        if not (np.isfinite(v).all() and (v > 0).all()):
            raise ModelFormatError(f"gnb {name} must be finite and positive")


def model_to_dict(m: TrainedModel) -> dict:
    if m.kind == "tree":
        params = {"root": _node_to_dict(m.model.root),
                  "n_features": m.model.n_features}
    else:
        params = {"classes": [c.name for c in m.model.classes],
                  "priors": m.model.priors.tolist(),
                  "means": m.model.means.tolist(),
                  "variances": m.model.variances.tolist()}
    return {"format_version": MODEL_FORMAT_VERSION, "kind": m.kind,
            "feature_names": list(m.feature_names), "parameters": params}


def model_from_dict(doc: dict) -> TrainedModel:
    try:
        version = doc["format_version"]
        kind = doc["kind"]
        names = tuple(doc["feature_names"])
        params = doc["parameters"]
    except (KeyError, TypeError) as exc:
        raise ModelFormatError(f"missing model field: {exc}") from exc
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format_version {version!r}, "
            f"expected {MODEL_FORMAT_VERSION}")
    if not all(isinstance(name, str) for name in names):
        raise ModelFormatError("feature_names must all be strings")
    try:
        if kind == "tree":
            n_features = int(params["n_features"])
            model = DecisionTree(_node_from_dict(params["root"], n_features),
                                 n_features)
        elif kind == "gnb":
            model = GaussianNB([MatrixClass[c] for c in params["classes"]],
                               np.asarray(params["priors"], dtype=np.float64),
                               np.asarray(params["means"], dtype=np.float64),
                               np.asarray(params["variances"], dtype=np.float64))
        else:
            raise ModelFormatError(f"unknown model kind {kind!r}")
    except (KeyError, TypeError) as exc:
        raise ModelFormatError(f"malformed model parameters: {exc}") from exc
    m = TrainedModel(kind, names, model)
    if kind == "tree" and model.n_features != len(names):
        raise ModelFormatError("feature_names do not match tree width")
    if kind == "gnb":
        _check_gnb(model, len(names))
    return m


def save_model(m: TrainedModel, sink) -> None:
    doc = model_to_dict(m)
    if hasattr(sink, "write"):
        json.dump(doc, sink, indent=2)
    else:
        Path(sink).write_text(json.dumps(doc, indent=2), encoding="ascii")


def load_model(source) -> TrainedModel:
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = Path(source).read_text(encoding="ascii")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"model file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError("model file must contain a JSON object")
    return model_from_dict(doc)
