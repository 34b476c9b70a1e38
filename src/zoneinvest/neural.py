"""From-scratch LSTM sequence model over zone orderings.

Zone IDs are embedded, run through a single LSTM layer (gates f/i/o with
sigmoid activations, tanh candidate, zero initial states), and the final
hidden state feeds a one-unit linear head: a sigmoid for the promising-
sequence classifier, or a ReLU for the value regressor benchmark.  Training
is plain minibatch Adam with full backpropagation through time, a seeded
validation split for epoch selection, and early stopping.

Everything is float64 numpy; gradients are exact (they are verified against
finite differences in the test suite).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._report import write_report
from .labeling import LabeledDataset

CLASSIFIER = "sigmoid-classifier"
REGRESSOR = "relu-regressor"

CHECKPOINT_FORMAT = "zoneinvest-lstm-v1"

GATE_PARAMS = ("W_fe", "W_fd", "b_f", "W_ie", "W_id", "b_i",
               "W_oe", "W_od", "b_o", "W_ed", "W_dd", "b_c")
ALL_PARAMS = ("emb",) + GATE_PARAMS + ("W_ff", "b_ff")


class DivergenceError(RuntimeError):
    """Training loss became non-finite; carries the last finite model."""

    def __init__(self, epoch: int, model: "LstmModel"):
        super().__init__(f"training diverged at epoch {epoch}")
        self.model = model


@dataclass
class LstmModel:
    vocab: tuple[str, ...]
    emb_size: int
    head_kind: str
    params: dict[str, np.ndarray]
    target_norm: tuple[float, float] = (0.0, 1.0)
    training_meta: dict = field(default_factory=dict)

    def zone_indices(self, seq) -> np.ndarray:
        lookup = {z: i for i, z in enumerate(self.vocab)}
        try:
            return np.array([lookup[z] for z in seq], dtype=int)
        except KeyError as exc:
            raise ValueError(f"zone {exc.args[0]!r} has no embedding") from None


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _param_shapes(n_vocab: int, d: int) -> dict[str, tuple[int, ...]]:
    """Shape of every parameter, in ``ALL_PARAMS`` order."""
    shapes = {"emb": (n_vocab, d)}
    for gate in ("f", "i", "o"):
        shapes.update({f"W_{gate}e": (d, d), f"W_{gate}d": (d, d),
                       f"b_{gate}": (d,)})
    shapes.update({"W_ed": (d, d), "W_dd": (d, d), "b_c": (d,),
                   "W_ff": (d,), "b_ff": (1,)})
    return shapes


def init_model(vocab, emb_size: int, head_kind: str = CLASSIFIER,
               seed: int = 0) -> LstmModel:
    """Uniform +-1/sqrt(emb_size) weights; forget-gate bias starts at 1."""
    if head_kind not in (CLASSIFIER, REGRESSOR):
        raise ValueError(f"unknown head kind {head_kind!r}")
    vocab = tuple(vocab)
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(emb_size)
    d = emb_size

    # Weights draw in ALL_PARAMS order; biases are constant: the forget
    # gate's starts at 1, and a slightly positive output bias keeps the ReLU
    # head from starting dead.
    bias = {"b_f": 1.0, "b_ff": 0.1 if head_kind == REGRESSOR else 0.0}
    params = {name: np.full(shape, bias.get(name, 0.0)) if name.startswith("b_")
              else rng.uniform(-bound, bound, size=shape)
              for name, shape in _param_shapes(len(vocab), d).items()}
    return LstmModel(vocab=vocab, emb_size=d, head_kind=head_kind, params=params)


def _forward_batch(params, idx):
    """LSTM forward over index matrix [B, H]; returns logits [B] and the
    per-step cache needed for backpropagation."""
    b, h_len = idx.shape
    d = params["emb"].shape[1]
    d_t = np.zeros((b, d))
    c_t = np.zeros((b, d))
    cache = []
    for t in range(h_len):
        cols = idx[:, t]
        e = params["emb"][cols]
        f = _sigmoid(e @ params["W_fe"].T + d_t @ params["W_fd"].T + params["b_f"])
        i = _sigmoid(e @ params["W_ie"].T + d_t @ params["W_id"].T + params["b_i"])
        o = _sigmoid(e @ params["W_oe"].T + d_t @ params["W_od"].T + params["b_o"])
        g = np.tanh(e @ params["W_ed"].T + d_t @ params["W_dd"].T + params["b_c"])
        c_new = f * c_t + i * g
        tc = np.tanh(c_new)
        d_new = o * tc
        cache.append((cols, e, d_t, c_t, f, i, o, g, tc))
        d_t, c_t = d_new, c_new
    logits = d_t @ params["W_ff"] + params["b_ff"][0]
    return logits, d_t, cache


def _head_output(logits, head_kind):
    if head_kind == CLASSIFIER:
        return _sigmoid(logits)
    return np.maximum(logits, 0.0)


def loss_and_gradients(params, idx, targets, head_kind):
    """Mean loss over the batch (BCE through the sigmoid head, MSE through
    the ReLU head) and exact gradients for every parameter."""
    logits, d_last, cache = _forward_batch(params, idx)
    b = idx.shape[0]
    if head_kind == CLASSIFIER:
        # binary cross-entropy on the logit, numerically stable
        loss = float(np.mean(np.logaddexp(0.0, logits) - targets * logits))
        dlogit = (_sigmoid(logits) - targets) / b
    else:
        pred = np.maximum(logits, 0.0)
        loss = float(np.mean((pred - targets) ** 2))
        dlogit = 2.0 * (pred - targets) * (logits > 0) / b

    grads = {name: np.zeros_like(arr) for name, arr in params.items()}
    grads["W_ff"] = dlogit @ d_last
    grads["b_ff"] = np.array([dlogit.sum()])
    grad_d = dlogit[:, None] * params["W_ff"][None, :]
    grad_c = np.zeros_like(grad_d)
    for cols, e, d_prev, c_prev, f, i, o, g, tc in reversed(cache):
        da_o = grad_d * tc * o * (1.0 - o)
        grad_c = grad_c + grad_d * o * (1.0 - tc ** 2)
        da_f = grad_c * c_prev * f * (1.0 - f)
        da_i = grad_c * g * i * (1.0 - i)
        da_c = grad_c * i * (1.0 - g ** 2)
        grads["W_fe"] += da_f.T @ e
        grads["W_fd"] += da_f.T @ d_prev
        grads["b_f"] += da_f.sum(axis=0)
        grads["W_ie"] += da_i.T @ e
        grads["W_id"] += da_i.T @ d_prev
        grads["b_i"] += da_i.sum(axis=0)
        grads["W_oe"] += da_o.T @ e
        grads["W_od"] += da_o.T @ d_prev
        grads["b_o"] += da_o.sum(axis=0)
        grads["W_ed"] += da_c.T @ e
        grads["W_dd"] += da_c.T @ d_prev
        grads["b_c"] += da_c.sum(axis=0)
        de = da_f @ params["W_fe"] + da_i @ params["W_ie"] \
            + da_o @ params["W_oe"] + da_c @ params["W_ed"]
        np.add.at(grads["emb"], cols, de)
        grad_d = da_f @ params["W_fd"] + da_i @ params["W_id"] \
            + da_o @ params["W_od"] + da_c @ params["W_dd"]
        grad_c = grad_c * f
    return loss, grads


def _batch_loss(params, idx, targets, head_kind):
    logits, _, _ = _forward_batch(params, idx)
    if head_kind == CLASSIFIER:
        return float(np.mean(np.logaddexp(0.0, logits) - targets * logits))
    return float(np.mean((np.maximum(logits, 0.0) - targets) ** 2))


class Adam:
    """Canonical Adam (beta1=0.9, beta2=0.999, eps=1e-8)."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params, grads):
        self.t += 1
        for k in params:
            g = grads[k]
            self.m[k] = self.b1 * self.m[k] + (1 - self.b1) * g
            self.v[k] = self.b2 * self.v[k] + (1 - self.b2) * g ** 2
            m_hat = self.m[k] / (1 - self.b1 ** self.t)
            v_hat = self.v[k] / (1 - self.b2 ** self.t)
            params[k] = params[k] - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def forward(model: LstmModel, seq) -> float:
    """Score one sequence: probability in [0, 1] for the classifier, a
    non-negative normalized value for the regressor."""
    idx = model.zone_indices(seq)[None, :]
    logits, _, _ = _forward_batch(model.params, idx)
    return float(_head_output(logits, model.head_kind)[0])


def scores(model: LstmModel, candidates) -> np.ndarray:
    """Vectorized :func:`forward` over same-length sequences."""
    idx = np.stack([model.zone_indices(s) for s in candidates])
    logits, _, _ = _forward_batch(model.params, idx)
    return _head_output(logits, model.head_kind)


def score_and_rank(model: LstmModel, candidates, k: int):
    """Top-k candidates by descending score, ties broken by zone order."""
    candidates = list(candidates)
    if k > len(candidates):
        raise ValueError(f"k={k} exceeds {len(candidates)} candidates")
    vals = scores(model, candidates)
    ranked = sorted(zip(candidates, vals), key=lambda cv: (-cv[1], cv[0].order))
    return ranked[:k]


def train(dataset: LabeledDataset, *, emb_size: int = 50, lr: float = 1e-3,
          batch_size: int = 32, max_epochs: int = 300, seed: int = 0,
          validation_fraction: float = 0.2, patience: int = 20,
          head_kind: str = CLASSIFIER):
    """Train a classifier (BCE on labels) or regressor (MSE on standardized
    values) with Adam and BPTT.

    A stratified ``validation_fraction`` of the dataset is held out to pick
    the best epoch (early stop after ``patience`` epochs without
    improvement); 0 disables the split and returns the final parameters.
    Deterministic per seed.  Returns ``(model, history)`` where history rows
    are (epoch, train_loss, val_loss) and epoch 0 is the pre-training loss.
    """
    seqs = dataset.sequences
    if head_kind == CLASSIFIER:
        targets = dataset.labels.astype(float)
        if dataset.n_positive == 0 or dataset.n_negative == 0:
            raise ValueError("classifier training needs both classes present")
        norm = (0.0, 1.0)
    elif head_kind == REGRESSOR:
        std = dataset.norm_std
        if std <= 0:
            raise ValueError("regressor training needs non-constant values")
        norm = (dataset.norm_mean, std)
        targets = (dataset.values - norm[0]) / norm[1]
    else:
        raise ValueError(f"unknown head kind {head_kind!r}")

    vocab = tuple(sorted({z for s in seqs for z in s}))
    rng = np.random.default_rng(seed)
    model = init_model(vocab, emb_size, head_kind, seed=rng.integers(2 ** 31))
    model.target_norm = norm
    idx_all = np.stack([model.zone_indices(s) for s in seqs])

    n = len(seqs)
    if validation_fraction > 0:
        val_mask = np.zeros(n, dtype=bool)
        for cls in (0, 1) if head_kind == CLASSIFIER else (None,):
            pool = np.flatnonzero(dataset.labels == cls) if cls is not None \
                else np.arange(n)
            n_val = int(round(validation_fraction * len(pool)))
            n_val = min(n_val, max(len(pool) - 1, 0))
            if n_val:
                val_mask[rng.choice(pool, size=n_val, replace=False)] = True
        train_idx = np.flatnonzero(~val_mask)
        val_idx = np.flatnonzero(val_mask)
    else:
        train_idx = np.arange(n)
        val_idx = np.array([], dtype=int)
    if head_kind == CLASSIFIER and (
            targets[train_idx].max() == 0 or targets[train_idx].min() == 1):
        raise ValueError("validation split left a single-class training set")

    params = model.params
    opt = Adam(params, lr=lr)
    history = [(0, _batch_loss(params, idx_all[train_idx], targets[train_idx],
                               head_kind),
                _batch_loss(params, idx_all[val_idx], targets[val_idx], head_kind)
                if len(val_idx) else None)]
    best = {name: arr.copy() for name, arr in params.items()}
    best_val = history[0][2] if len(val_idx) else np.inf
    best_epoch = 0
    since_best = 0
    for epoch in range(1, max_epochs + 1):
        order = rng.permutation(train_idx)
        for start in range(0, len(order), batch_size):
            batch = order[start:start + batch_size]
            loss, grads = loss_and_gradients(params, idx_all[batch],
                                             targets[batch], head_kind)
            if not np.isfinite(loss):
                model.params = best
                raise DivergenceError(epoch, model)
            opt.step(params, grads)
        train_loss = _batch_loss(params, idx_all[train_idx], targets[train_idx],
                                 head_kind)
        val_loss = _batch_loss(params, idx_all[val_idx], targets[val_idx],
                               head_kind) if len(val_idx) else None
        history.append((epoch, train_loss, val_loss))
        if len(val_idx):
            if val_loss < best_val:
                best_val = val_loss
                best = {name: arr.copy() for name, arr in params.items()}
                best_epoch = epoch
                since_best = 0
            else:
                since_best += 1
                if since_best >= patience:
                    break
        else:
            best = params
            best_epoch = epoch
    model.params = {name: arr.copy() for name, arr in best.items()}
    model.training_meta = {
        "seed": seed, "lr": lr, "batch_size": batch_size,
        "epochs_run": history[-1][0], "best_epoch": best_epoch,
        "validation_fraction": validation_fraction,
        "best_val_loss": None if not len(val_idx) else float(best_val),
    }
    return model, history


# -- evaluation metrics -------------------------------------------------------

def gap_at_k(eta_true: float, eta_pred: float) -> float:
    """Percent shortfall of the best retrieved value vs the true best."""
    if eta_true <= 0:
        raise ValueError("eta_true must be positive")
    if eta_pred > eta_true * (1 + 1e-12):
        raise ValueError("eta_pred cannot exceed eta_true")
    return (eta_true - eta_pred) / eta_true * 100.0


def auc(score_values, labels) -> float:
    """P(score of a positive > score of a negative), ties counted half
    (Mann-Whitney U through average ranks)."""
    s = np.asarray(score_values, dtype=float)
    y = np.asarray(labels)
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present")
    order = np.argsort(s, kind="mergesort")
    ranks = np.empty(len(s))
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and s[order[j + 1]] == s[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0  # average 1-based rank
        i = j + 1
    u = ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


# -- checkpoints --------------------------------------------------------------

def save_model(model: LstmModel, path) -> None:
    """Versioned JSON checkpoint: vocabulary, flat parameter arrays (in
    ``ALL_PARAMS`` order), head kind, target normalization, training meta."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "vocab": list(model.vocab),
        "emb_size": model.emb_size,
        "head_kind": model.head_kind,
        "target_norm": list(model.target_norm),
        "training_meta": model.training_meta,
        "params": {name: model.params[name].ravel().tolist()
                   for name in ALL_PARAMS},
    }
    write_report(path, doc)


def load_model(path) -> LstmModel:
    doc = json.loads(Path(path).read_text())
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"unsupported checkpoint format {doc.get('format')!r}")
    d = int(doc["emb_size"])
    vocab = tuple(doc["vocab"])
    params = {name: np.array(doc["params"][name]).reshape(shape)
              for name, shape in _param_shapes(len(vocab), d).items()}
    return LstmModel(vocab=vocab, emb_size=d, head_kind=doc["head_kind"],
                     params=params, target_norm=tuple(doc["target_norm"]),
                     training_meta=doc["training_meta"])
