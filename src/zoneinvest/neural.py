"""From-scratch LSTM sequence model over zone orderings.

Zone IDs are embedded, run through a single LSTM layer (gates f/i/o with
sigmoid activations, tanh candidate, zero initial states), and the final
hidden state feeds a one-unit linear head: a sigmoid for the promising-
sequence classifier, or a ReLU for the value regressor benchmark.  Training
is plain minibatch Adam with full backpropagation through time, a seeded
validation split for epoch selection, and early stopping.

Everything is float64 numpy; gradients are exact (they are verified against
finite differences and a per-gate reference in the test suite).
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._chunks import chunk_slices
from ._report import write_report
from .labeling import LabeledDataset

CLASSIFIER = "sigmoid-classifier"
REGRESSOR = "relu-regressor"

CHECKPOINT_FORMAT = "zoneinvest-lstm-v2"

# Parameter order of checkpoints and of the flat vector Adam updates.  The
# gate blocks of W_x, W_h and b are stacked in the order f, i, o, c.
PARAMS = ("emb", "W_x", "W_h", "b", "W_ff", "b_ff")

# Rows per LSTM pass in forward scoring.  A pass holds [rows, 4d] gate
# arrays, so scoring n rows holds one chunk's gates plus the [n, d] final
# states instead of [n, 4d] gates.
SCORE_CHUNK = 256


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

    def __post_init__(self):
        self._lookup = {z: i for i, z in enumerate(self.vocab)}

    def zone_indices(self, seqs) -> np.ndarray:
        """Embedding rows of same-length sequences, shape [len(seqs), H]."""
        try:
            return np.array([[self._lookup[z] for z in s] for s in seqs],
                            dtype=int)
        except KeyError as exc:
            raise ValueError(f"zone {exc.args[0]!r} has no embedding") from None


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _views(flat: np.ndarray, shapes) -> dict[str, np.ndarray]:
    """Parameter arrays as views into one flat vector, in ``shapes`` order."""
    ends = np.cumsum([np.prod(shape, dtype=int) for shape in shapes.values()])
    return {name: part.reshape(shape) for (name, shape), part
            in zip(shapes.items(), np.split(flat, ends[:-1]))}


def init_model(vocab, emb_size: int, head_kind: str = CLASSIFIER,
               seed: int = 0) -> LstmModel:
    """Uniform +-1/sqrt(emb_size) weights; forget-gate bias starts at 1."""
    if head_kind not in (CLASSIFIER, REGRESSOR):
        raise ValueError(f"unknown head kind {head_kind!r}")
    vocab = tuple(vocab)
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(emb_size)
    d = emb_size

    # Weights draw gate by gate, input block before recurrent block, so a seed
    # gives the per-gate layout's weights.  Biases are constant: the forget
    # gate's starts at 1, and a positive output bias keeps the ReLU alive.
    emb = rng.uniform(-bound, bound, size=(len(vocab), d))
    blocks = rng.uniform(-bound, bound, size=(4, 2, d, d))
    params = {"emb": emb, "W_x": blocks[:, 0].reshape(4 * d, d),
              "W_h": blocks[:, 1].reshape(4 * d, d),
              "b": np.repeat([1.0, 0.0], [d, 3 * d]),
              "W_ff": rng.uniform(-bound, bound, size=d),
              "b_ff": np.array([0.1 if head_kind == REGRESSOR else 0.0])}
    return LstmModel(vocab=vocab, emb_size=d, head_kind=head_kind, params=params)


def _steps(params, idx):
    """Run the LSTM over index matrix [B, H], yielding each step's activated
    gates [B, 4d], cell state, its tanh and hidden state.  Input terms come
    from one [V, 4d] table per call; t = 0 has no recurrent term (zero state)."""
    b_len, h_len = idx.shape
    d = params["emb"].shape[1]
    table = params["emb"] @ params["W_x"].T
    w_h = np.ascontiguousarray(params["W_h"].T)  # faster than a .T view
    h = c = np.zeros((b_len, d))
    for t in range(h_len):
        a = table[idx[:, t]]
        if t:
            a += h @ w_h
        a += params["b"]
        a[:, :3 * d] = _sigmoid(a[:, :3 * d])
        a[:, 3 * d:] = np.tanh(a[:, 3 * d:])
        c = a[:, :d] * c + a[:, d:2 * d] * a[:, 3 * d:]
        tc = np.tanh(c)
        h = a[:, 2 * d:3 * d] * tc
        yield a, c, tc, h


def _final_hidden(params, idx):
    """Final hidden states [B, d], keeping only the current step's state of
    one ``SCORE_CHUNK``-row chunk at a time.  A chunk is never a single row
    unless B is 1: that row's ``h @ W_h`` would take BLAS's matrix-vector
    path and round differently."""
    final = np.empty((len(idx), params["emb"].shape[1]))
    for rows in chunk_slices(len(idx), SCORE_CHUNK):
        for _, _, _, h in _steps(params, idx[rows]):
            pass
        final[rows] = h
    return final


def _logits(params, idx):
    """Head logits [B].  The head runs once over all rows, not per chunk,
    because its matrix-vector product blocks rows by batch size."""
    return _final_hidden(params, idx) @ params["W_ff"] + params["b_ff"][0]


def _loss(logits, targets, head_kind):
    """Mean loss over the batch (BCE through the sigmoid head, MSE through
    the ReLU head) and its gradient with respect to the logits."""
    if head_kind == CLASSIFIER:
        # binary cross-entropy on the logit, numerically stable
        return (float(np.mean(np.logaddexp(0.0, logits) - targets * logits)),
                (_sigmoid(logits) - targets) / len(logits))
    pred = np.maximum(logits, 0.0)
    return (float(np.mean((pred - targets) ** 2)),
            2.0 * (pred - targets) * (logits > 0) / len(logits))


def _batch_loss(params, idx, targets, head_kind):
    return _loss(_logits(params, idx), targets, head_kind)[0]


def loss_and_gradients(params, idx, targets, head_kind):
    """Mean loss over the batch and exact gradients for every parameter, by
    backpropagation through time."""
    gates, cells, tcs, hidden = (np.stack(x) for x in zip(*_steps(params, idx)))
    loss, dlogit = _loss(hidden[-1] @ params["W_ff"] + params["b_ff"][0],
                         targets, head_kind)
    b_len, h_len = idx.shape
    d = params["emb"].shape[1]

    # For all steps: factors taking the cell state's gradient (f, i, c) or the
    # hidden state's (o) to each gate's pre-activation, and hidden to cell.
    f, i, o, g = np.moveaxis(gates.reshape(h_len, b_len, 4, d), 2, 0)
    factor = gates * (1.0 - gates)
    by_gate = np.moveaxis(factor.reshape(h_len, b_len, 4, d), 2, 0)
    by_gate[0, 0] = 0.0  # the initial cell state is zero
    by_gate[0, 1:] *= cells[:-1]
    by_gate[1] *= g
    by_gate[2] *= tcs
    by_gate[3] = i * (1.0 - g ** 2)
    to_cell = o * (1.0 - tcs ** 2)

    delta = np.empty_like(gates)  # pre-activation gradients [H, B, 4d]
    grad_h = dlogit[:, None] * params["W_ff"][None, :]
    grad_c = np.zeros((b_len, d))
    for t in range(h_len - 1, -1, -1):
        grad_c += grad_h * to_cell[t]
        upstream = delta[t].reshape(b_len, 4, d)
        upstream[:] = grad_c[:, None, :]
        upstream[:, 2] = grad_h
        delta[t] *= factor[t]
        if t:
            grad_h = delta[t] @ params["W_h"]
            grad_c *= f[t]

    # Input-side gradients go through per-zone sums of the deltas.
    flat = delta.reshape(h_len * b_len, 4 * d)
    onehot = idx.T.reshape(-1, 1) == np.arange(len(params["emb"]))
    per_zone = onehot.T.astype(float) @ flat
    grads = {"emb": per_zone @ params["W_x"],
             "W_x": per_zone.T @ params["emb"],
             "W_h": flat[b_len:].T @ hidden[:-1].reshape(-1, d),
             "b": per_zone.sum(axis=0),
             "W_ff": dlogit @ hidden[-1],
             "b_ff": np.array([dlogit.sum()])}
    return loss, grads


def scores(model: LstmModel, candidates) -> np.ndarray:
    """Score same-length sequences: a probability in [0, 1] for the
    classifier, a non-negative normalized value for the regressor.

    The LSTM runs over chunks of ``SCORE_CHUNK`` rows and keeps only each
    row's final hidden state, so gate arrays do not grow with
    ``len(candidates)``; the result is bit for bit that of one unchunked
    pass.  A candidate's score agrees across separate calls only to
    ~1e-12, not bit for bit: BLAS takes a matrix-vector path for a single
    row and blocks the head's matrix-vector product by batch size.
    :func:`score_and_rank` scores all its candidates in one call, so policy
    outputs are reproducible.
    """
    logits = _logits(model.params, model.zone_indices(candidates))
    if model.head_kind == CLASSIFIER:
        return _sigmoid(logits)
    return np.maximum(logits, 0.0)


def score_and_rank(model: LstmModel, candidates, k: int):
    """Top-k candidates by descending score, ties broken by zone order."""
    candidates = list(candidates)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > len(candidates):
        raise ValueError(f"k={k} exceeds {len(candidates)} candidates")
    vals = scores(model, candidates)
    ranked = sorted(zip(candidates, vals), key=lambda cv: (-cv[1], cv[0].order))
    return ranked[:k]


def check_validation_fraction(fraction: float) -> None:
    """Reject a validation fraction outside [0, 1)."""
    if not 0.0 <= fraction < 1.0:
        raise ValueError(
            f"validation_fraction must be in [0, 1), got {fraction}")


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
    are (epoch, val_loss), val_loss None without a split, and epoch 0 is
    the pre-training loss.
    """
    check_validation_fraction(validation_fraction)
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

    vocab = tuple(sorted({z for s in seqs for z in s}))
    rng = np.random.default_rng(seed)
    model = init_model(vocab, emb_size, head_kind, seed=rng.integers(2 ** 31))
    model.target_norm = norm
    idx_all = model.zone_indices(seqs)

    n = len(seqs)
    val_mask = np.zeros(n, dtype=bool)
    for cls in (0, 1) if head_kind == CLASSIFIER else (None,):
        pool = np.flatnonzero(dataset.labels == cls) if cls is not None \
            else np.arange(n)
        n_val = int(round(validation_fraction * len(pool)))
        n_val = min(n_val, max(len(pool) - 1, 0))
        if n_val > 0:
            val_mask[rng.choice(pool, size=n_val, replace=False)] = True
    train_idx = np.flatnonzero(~val_mask)
    val_idx = np.flatnonzero(val_mask)
    if head_kind == CLASSIFIER and (
            targets[train_idx].max() == 0 or targets[train_idx].min() == 1):
        raise ValueError("validation split left a single-class training set")

    shapes = {name: model.params[name].shape for name in PARAMS}
    theta = np.concatenate([model.params[name].ravel() for name in PARAMS])
    params = _views(theta, shapes)
    # Adam (beta1 0.9, beta2 0.999, eps 1e-8) with flat moments, in place
    b1, b2, eps = 0.9, 0.999, 1e-8
    m, v = np.zeros(theta.size), np.zeros(theta.size)
    n_updates = 0

    def validation_loss():
        return (_batch_loss(params, idx_all[val_idx], targets[val_idx],
                            head_kind) if len(val_idx) else None)

    history = [(0, validation_loss())]
    best = theta.copy()
    best_val = history[0][1] if len(val_idx) else np.inf
    best_epoch = 0
    for epoch in range(1, max_epochs + 1):
        order = rng.permutation(train_idx)
        for start in range(0, len(order), batch_size):
            batch = order[start:start + batch_size]
            loss, grads = loss_and_gradients(params, idx_all[batch],
                                             targets[batch], head_kind)
            if not np.isfinite(loss):
                model.params = _views(best, shapes)
                raise DivergenceError(epoch, model)
            grad = np.concatenate([grads[name].ravel() for name in PARAMS])
            n_updates += 1
            m *= b1
            m += (1 - b1) * grad
            v *= b2
            v += (1 - b2) * grad ** 2
            step = lr * (m / (1 - b1 ** n_updates))
            step /= np.sqrt(v / (1 - b2 ** n_updates)) + eps
            theta -= step
        val_loss = validation_loss()
        history.append((epoch, val_loss))
        if not len(val_idx):
            best, best_epoch = theta.copy(), epoch
        elif val_loss < best_val:
            best, best_val, best_epoch = theta.copy(), val_loss, epoch
        elif epoch - best_epoch >= patience:
            break
    model.params = _views(best, shapes)
    model.training_meta = {
        "seed": seed, "lr": lr, "batch_size": batch_size,
        "epochs_run": history[-1][0], "best_epoch": best_epoch,
        "validation_fraction": validation_fraction,
        "best_val_loss": None if not len(val_idx) else float(best_val),
        # 0 means early stopping picked the epoch on negatives alone;
        # None without a split or for the regressor
        "validation_positives": (int(dataset.labels[val_idx].sum())
                                 if head_kind == CLASSIFIER and len(val_idx)
                                 else None),
    }
    return model, history


# Taken once at import, so that a caller's wrapper around ``train`` (a
# timer, say) does not hide the settings it takes.
_TRAIN_SIGNATURE = inspect.signature(train)


def check_train_settings(**settings) -> None:
    """Raise for keyword ``settings`` what :func:`train` raises before it
    reads its dataset: ``TypeError`` for a name it does not take and
    ``ValueError`` for a ``validation_fraction`` outside [0, 1)."""
    bound = _TRAIN_SIGNATURE.bind(None, **settings)
    bound.apply_defaults()
    check_validation_fraction(bound.arguments["validation_fraction"])


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
    # A score's tie block fills sorted positions lo..hi-1: its average
    # 1-based rank is (lo + 1 + hi) / 2.
    ordered = np.sort(s)
    ranks = 0.5 * (np.searchsorted(ordered, s, side="left")
                   + np.searchsorted(ordered, s, side="right") + 1)
    u = ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


# -- checkpoints --------------------------------------------------------------

def save_model(model: LstmModel, path) -> None:
    """Versioned JSON checkpoint: vocabulary, flat parameter arrays (in
    ``PARAMS`` order), head kind, target normalization, training meta."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "vocab": list(model.vocab),
        "emb_size": model.emb_size,
        "head_kind": model.head_kind,
        "target_norm": list(model.target_norm),
        "training_meta": model.training_meta,
        "params": {name: model.params[name].ravel().tolist()
                   for name in PARAMS},
    }
    write_report(path, doc)


def load_model(path) -> LstmModel:
    doc = json.loads(Path(path).read_text())
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"unsupported checkpoint format {doc.get('format')!r}; "
                         f"this version reads {CHECKPOINT_FORMAT!r}")
    d = int(doc["emb_size"])
    vocab = tuple(doc["vocab"])
    template = init_model(vocab, d, doc["head_kind"]).params
    params = {name: np.array(doc["params"][name]).reshape(template[name].shape)
              for name in PARAMS}
    return LstmModel(vocab=vocab, emb_size=d, head_kind=doc["head_kind"],
                     params=params, target_norm=tuple(doc["target_norm"]),
                     training_meta=doc["training_meta"])
