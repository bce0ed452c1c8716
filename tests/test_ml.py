import io
import json
import math

import numpy as np
import pytest

from spmvtune import (Dataset, GaussianNB, MatrixClass,
                      ModelFormatError, TrainedModel, load_model, loo_cv,
                      save_model, train_cart, train_gnb)
from spmvtune.ml import TreeLeaf, TreeNode, model_from_dict, model_to_dict

A, B, C, D = MatrixClass.CML, MatrixClass.MB, MatrixClass.IMB, MatrixClass.CMP


def ds(X, labels, names=None):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] == 1 and len(labels) > 1:
        X = X.T
    names = names or tuple(f"f{i}" for i in range(X.shape[1]))
    return Dataset(X, labels, names)


# --- CART -------------------------------------------------------------------------

def test_single_class_dataset_trains_single_leaf():
    t = train_cart(ds([[1.0], [2.0], [3.0]], [B, B, B]))
    assert isinstance(t.root, TreeLeaf)
    assert t.root.prediction is B
    assert t.root.counts[B] == 3
    assert t.predict([99.0]) is B


def test_one_feature_split_at_midpoint():
    t = train_cart(ds([[0.0], [1.0], [10.0], [11.0]], [A, A, B, B]))
    assert isinstance(t.root, TreeNode)
    assert t.root.feature == 0
    assert t.root.threshold == 5.5
    assert isinstance(t.root.left, TreeLeaf) and t.root.left.prediction is A
    assert isinstance(t.root.right, TreeLeaf) and t.root.right.prediction is B
    assert t.predict([0.3]) is A
    assert t.predict([100.0]) is B
    assert t.predict([5.5]) is A  # boundary goes left


def test_xor_pattern_needs_depth_two():
    X = [[0, 0], [1, 1], [0, 1], [1, 0]]
    y = [A, A, B, B]
    t = train_cart(ds(X, y))
    assert all(t.predict(x) is lbl for x, lbl in zip(np.array(X, float), y))
    # depth exactly 2
    assert isinstance(t.root, TreeNode)
    for child in (t.root.left, t.root.right):
        assert isinstance(child, TreeNode)
        assert isinstance(child.left, TreeLeaf) and isinstance(child.right, TreeLeaf)


def test_max_depth_zero_gives_majority_leaf():
    t = train_cart(ds([[0.0], [1.0], [2.0]], [A, A, B]), max_depth=0)
    assert isinstance(t.root, TreeLeaf)
    assert t.root.prediction is A


def test_majority_tie_breaks_to_lower_class():
    t = train_cart(ds([[0.0], [0.0]], [D, B]), max_depth=0)
    assert t.root.prediction is B


def test_min_leaf_blocks_unbalanced_splits():
    t = train_cart(ds([[0.0], [1.0], [2.0], [3.0]], [A, A, A, B]), min_leaf=2)
    if isinstance(t.root, TreeNode):
        # any split must leave two samples on each side
        assert t.root.threshold == 1.5


def test_predict_dimension_mismatch():
    t = train_cart(ds([[0.0, 1.0]], [A]))
    with pytest.raises(ValueError):
        t.predict([1.0])


def test_training_consistency_on_distinct_vectors():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(4, 40))
        X = rng.uniform(-5, 5, (n, 3))
        while len(np.unique(X.round(9), axis=0)) != n:
            X = rng.uniform(-5, 5, (n, 3))
        labels = [MatrixClass(int(c)) for c in rng.integers(0, 4, n)]
        t = train_cart(Dataset(X, labels, ("a", "b", "c")))
        assert all(t.predict(x) is lbl for x, lbl in zip(X, labels))


def _gini(codes):
    if len(codes) == 0:
        return 0.0
    counts = np.bincount(codes, minlength=4)
    p = counts / len(codes)
    return 1.0 - float((p * p).sum())


def _check_gini_monotone(node, X, codes):
    """Recompute each node's region from scratch and check that the weighted
    child impurity never exceeds the parent impurity."""
    if isinstance(node, TreeLeaf):
        if len(set(codes.tolist())) <= 1:
            assert _gini(codes) == 0.0  # pure node has zero impurity
        return
    left = X[:, node.feature] <= node.threshold
    nl, nr = int(left.sum()), int((~left).sum())
    assert nl > 0 and nr > 0
    weighted = (nl * _gini(codes[left]) + nr * _gini(codes[~left])) / len(codes)
    assert weighted <= _gini(codes) + 1e-12
    _check_gini_monotone(node.left, X[left], codes[left])
    _check_gini_monotone(node.right, X[~left], codes[~left])


def test_gini_never_increases_at_any_split():
    rng = np.random.default_rng(19)
    X = rng.uniform(0, 1, (60, 4))
    codes = rng.integers(0, 4, 60)
    labels = [MatrixClass(int(c)) for c in codes]
    t = train_cart(Dataset(X, labels, ("a", "b", "c", "d")))
    assert isinstance(t.root, TreeNode)
    _check_gini_monotone(t.root, X, codes)


def test_tree_prediction_equals_bruteforce_region_lookup():
    rng = np.random.default_rng(61)
    X = rng.uniform(0, 1, (40, 3))
    labels = [MatrixClass(int(c)) for c in rng.integers(0, 4, 40)]
    t = train_cart(Dataset(X, labels, ("a", "b", "c")))

    def brute(x):
        node = t.root
        path = []
        while isinstance(node, TreeNode):
            path.append((node.feature, node.threshold, x[node.feature] <= node.threshold))
            node = node.left if path[-1][2] else node.right
        # check every recorded constraint explicitly
        for feat, thr, went_left in path:
            assert (x[feat] <= thr) == went_left
        return node.prediction

    for x in rng.uniform(0, 1, (50, 3)):
        assert t.predict(x) is brute(x)


# --- Gaussian NB --------------------------------------------------------------------

def test_gnb_statistics():
    data = ds([[0.0], [0.1], [-0.1], [10.0], [10.1], [9.9]], [A, A, A, B, B, B])
    m = train_gnb(data)
    max_var = np.var([0.0, 0.1, -0.1, 10.0, 10.1, 9.9])
    smoothing = 1e-9 * max_var
    assert m.classes == [A, B]
    assert m.priors.tolist() == [0.5, 0.5]
    assert m.means[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert m.variances[0, 0] == pytest.approx(0.02 / 3 + smoothing, rel=1e-12)


def test_gnb_one_sample_per_class_gets_smoothing_floor_only():
    m = train_gnb(ds([[0.0], [10.0]], [A, B]))
    smoothing = 1e-9 * np.var([0.0, 10.0])
    assert np.allclose(m.variances, smoothing, rtol=1e-12)
    assert (m.variances > 0).all()


def test_gnb_priors_reflect_counts():
    m = train_gnb(ds([[0.0], [0.1], [0.2], [5.0]], [A, A, A, B]))
    assert m.priors.tolist() == [0.75, 0.25]
    assert m.priors.sum() == 1.0


def test_gnb_prediction_follows_nearest_mean_under_equal_variance():
    m = GaussianNB([A, B], np.array([0.5, 0.5]),
                   np.array([[0.0], [10.0]]), np.array([[1.0], [1.0]]))
    assert m.predict([0.05]) is A
    assert m.predict([5.2]) is B
    assert m.predict([5.0]) is A  # exact midpoint ties to the lower class
    # hand-computed log likelihoods
    x = 0.05
    for ci, mu in enumerate((0.0, 10.0)):
        expected = math.log(0.5) - 0.5 * (math.log(2 * math.pi) + (x - mu) ** 2)
        assert m.log_scores([x])[ci] == pytest.approx(expected, rel=1e-12)


def test_gnb_argmax_invariances():
    rng = np.random.default_rng(3)
    X = np.concatenate([rng.normal(0, 1, (8, 2)), rng.normal(6, 1, (8, 2))])
    labels = [A] * 8 + [C] * 8
    m = train_gnb(Dataset(X, labels, ("u", "v")))
    m2 = train_gnb(Dataset(np.concatenate([X, X]), labels + labels, ("u", "v")))
    for x in rng.uniform(-3, 9, (20, 2)):
        s = m.log_scores(x)
        assert m.classes[int(np.argmax(s))] is m.classes[int(np.argmax(s + 123.456))]
        assert m.predict(x) is m2.predict(x)  # duplication changes nothing


def test_gnb_dimension_mismatch():
    m = train_gnb(ds([[0.0, 1.0], [1.0, 0.0]], [A, B], ("u", "v")))
    with pytest.raises(ValueError):
        m.predict([1.0])


# --- leave-one-out --------------------------------------------------------------------

def test_loo_separable_clusters_scores_one():
    X = [[0.0], [0.1], [-0.1], [0.05], [-0.05],
         [10.0], [10.1], [9.9], [10.05], [9.95]]
    data = ds(X, [A] * 5 + [B] * 5)
    accuracy, predictions = loo_cv(data, train_gnb)
    assert accuracy == 1.0
    assert predictions == [A] * 5 + [B] * 5


def test_loo_two_samples_two_classes_scores_zero():
    accuracy, _ = loo_cv(ds([[0.0], [10.0]], [A, B]), train_gnb)
    assert accuracy == 0.0


def test_loo_constant_stub_returns_class_frequency():
    class Constant:
        def predict(self, x):
            return B

    labels = [B, B, B] + [A] * 7
    data = ds([[float(i)] for i in range(10)], labels)
    accuracy, _ = loo_cv(data, lambda _ds: Constant())
    assert accuracy == pytest.approx(0.3)


def test_loo_needs_two_samples():
    with pytest.raises(ValueError):
        loo_cv(ds([[1.0]], [A]), train_gnb)


# --- persistence ------------------------------------------------------------------------

def test_tree_model_round_trip(tmp_path):
    data = ds([[0.0, 5.0], [1.0, 4.0], [10.0, 3.0], [11.0, 2.0]], [A, A, B, B],
              ("nnz_min", "bw_avg"))
    model = TrainedModel("tree", data.feature_names, train_cart(data))
    path = tmp_path / "tree.json"
    save_model(model, path)
    loaded = load_model(path)
    assert model_to_dict(loaded) == model_to_dict(model)
    for x in ([0.5, 4.5], [10.5, 2.5], [5.5, 3.5]):
        assert loaded.predict(x) is model.predict(x)


def test_gnb_model_round_trip_stream():
    data = ds([[0.0], [0.3], [9.7], [10.0]], [A, A, D, D], ("density",))
    model = TrainedModel("gnb", data.feature_names, train_gnb(data))
    buf = io.StringIO()
    save_model(model, buf)
    loaded = load_model(io.StringIO(buf.getvalue()))
    assert model_to_dict(loaded) == model_to_dict(model)
    assert np.array_equal(loaded.model.means, model.model.means)
    assert np.array_equal(loaded.model.variances, model.model.variances)


def test_load_rejects_wrong_version(tmp_path):
    data = ds([[0.0], [1.0]], [A, B], ("density",))
    model = TrainedModel("gnb", data.feature_names, train_gnb(data))
    doc = model_to_dict(model)
    doc["format_version"] = 999
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_rejects_malformed_content(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json at all")
    with pytest.raises(ModelFormatError):
        load_model(path)
    path.write_text(json.dumps({"format_version": 1, "kind": "tree"}))
    with pytest.raises(ModelFormatError):
        load_model(path)


def _tree_doc():
    data = ds([[0.0, 5.0], [1.0, 4.0], [10.0, 3.0], [11.0, 2.0]], [A, A, B, B],
              ("nnz_min", "bw_avg"))
    return model_to_dict(TrainedModel("tree", data.feature_names, train_cart(data)))


def _gnb_doc():
    data = ds([[0.0], [0.3], [9.7], [10.0]], [A, A, D, D], ("density",))
    return model_to_dict(TrainedModel("gnb", data.feature_names, train_gnb(data)))


@pytest.mark.parametrize("feature", [99, 2, -1])
def test_load_rejects_tree_feature_out_of_range(feature):
    doc = _tree_doc()
    doc["parameters"]["root"]["feature"] = feature
    with pytest.raises(ModelFormatError, match="outside"):
        model_from_dict(doc)


@pytest.mark.parametrize("field,value", [
    ("variances", [[-1.0], [-1.0]]),
    ("variances", [[0.0], [1.0]]),
    ("variances", [[math.nan], [1.0]]),
    ("priors", [0.0, 1.0]),
    ("priors", [math.inf, 0.5]),
    ("priors", [1.0]),
    ("means", [[0.0, 1.0], [2.0, 3.0]]),
    ("variances", [1.0, 1.0]),
])
def test_load_rejects_invalid_gnb_parameters(field, value):
    doc = _gnb_doc()
    model_from_dict(doc)  # the unmodified document loads
    doc["parameters"][field] = value
    with pytest.raises(ModelFormatError):
        model_from_dict(doc)
