"""Initialization, optimization, the training loop, and checkpoints.

Training is deliberately plain: per-example graphs, summed-then-averaged
batch gradients, Adam with bias correction, and best-dev parameter
selection.  All randomness flows from one seed through named child
streams, so a rerun with the same configuration is bit-identical.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .autodiff import (
    AffineMap,
    Graph,
    NonFiniteValue,
    Parameter,
    ShapeMismatch,
    backward,
    grad_check,
)
from .composer import LstmParameters
from .embeddings import EmbeddingTable, Vocabulary, empty_vocabulary, register_oov
from .entailment import (
    LABELS,
    ModelParameters,
    loss_node,
    plain_forward,
    plain_loss,
    run_forward,
)

INIT_SCALE = 0.05


class EmptyDataset(ValueError):
    pass


class CheckpointError(ValueError):
    pass


@dataclass
class TrainConfig:
    k: int = 150                 # meaning-composer width
    r: int = 150                 # relation-composer width
    d: int = 300                 # word vector width
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    adam_epsilon: float = 1e-8
    batch_size: int = 32
    dropout_rate: float = 0.2
    epochs: int = 10
    seed: int = 0
    use_dual: bool = False
    precision: str = "double"
    separate_reverse_scorer: bool = False

    def __post_init__(self):
        if min(self.k, self.r, self.d) < 1:
            raise ValueError("widths must be at least 1")
        if not 0.0 < self.learning_rate < 1.0:
            raise ValueError("learning_rate must lie in (0, 1)")
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ValueError("betas must lie in (0, 1)")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be positive and epochs nonnegative")
        if self.precision not in ("double", "single"):
            raise ValueError("precision must be 'double' or 'single'")

    @property
    def dtype(self):
        return np.float64 if self.precision == "double" else np.float32


def _uniform_affine(name, out_dim, in_dim, rng, dtype):
    w = rng.uniform(-INIT_SCALE, INIT_SCALE, (out_dim, in_dim))
    b = rng.uniform(-INIT_SCALE, INIT_SCALE, (out_dim, 1))
    return AffineMap.from_arrays(name, w.astype(dtype), b.astype(dtype))


def init_parameters(config, rng):
    """Draw every non-embedding tensor i.i.d. uniform on [-0.05, 0.05].

    The draw order is fixed by declaration order, so one seed pins the
    whole parameter set.
    """
    k, r, d, dt = config.k, config.r, config.d, config.dtype
    meaning = LstmParameters(_uniform_affine("meaning", 5 * k, d + 2 * k, rng, dt))
    relation = LstmParameters(_uniform_affine("relation", 5 * r, 2 * k + 2 * r, rng, dt))
    scorer = _uniform_affine("scorer", 1, 2 * k, rng, dt)
    reverse = None
    if config.separate_reverse_scorer:
        reverse = _uniform_affine("reverse_scorer", 1, 2 * k, rng, dt)
    classifier = _uniform_affine("classifier", 3, r, rng, dt)
    return ModelParameters(meaning, relation, scorer, classifier, reverse)


@dataclass
class OptimizerState:
    """First and second moment estimates per parameter, plus step count."""

    first: dict = field(default_factory=dict)
    second: dict = field(default_factory=dict)
    step: int = 0


def init_optimizer(params):
    state = OptimizerState()
    for p in params:
        state.first[p] = np.zeros_like(p.value)
        state.second[p] = np.zeros_like(p.value)
    return state


def adam_step(params, grads, state, config):
    """One bias-corrected Adam update, in place.

    Parameters absent from ``grads`` are treated as zero-gradient; from
    a fresh state that makes the step the identity on them.
    """
    state.step += 1
    b1, b2 = config.beta1, config.beta2
    lr, eps = config.learning_rate, config.adam_epsilon
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    for p in params:
        g = grads.get(p)
        if g is not None and g.shape != p.value.shape:
            raise ShapeMismatch(f"gradient shape {g.shape} for {p.name}")
        if g is None:
            g = 0.0
        m = state.first[p] = b1 * state.first[p] + (1.0 - b1) * g
        v = state.second[p] = b2 * state.second[p] + (1.0 - b2) * (g * g)
        update = lr * (m / c1) / (np.sqrt(v / c2) + eps)
        p.value -= update.astype(p.value.dtype, copy=False)


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    train_accuracy: float
    dev_accuracy: float


def _corpus_tokens(dataset):
    tokens = set()
    for pair in dataset:
        tokens.update(pair.premise.leaves())
        tokens.update(pair.hypothesis.leaves())
    return sorted(tokens)


def _trainable(params, table):
    out = list(params.trainable())
    if table.trainable is not None:
        out.append(table.trainable)
    return out


def train(dataset, dev_set, config, vocab=None, table=None, initial_params=None):
    """Train a model and return ``(params, vocab, table, metrics)``.

    ``vocab``/``table`` default to a fresh embedding-free vocabulary;
    either way, out-of-vocabulary rows are registered from the training
    set if that has not happened yet.  After the final epoch the
    parameters are rolled back to the epoch with the best dev accuracy
    (earliest epoch wins ties).
    """
    if not dataset:
        raise EmptyDataset("no training examples")
    if not dev_set:
        raise EmptyDataset("no dev examples")

    streams = np.random.SeedSequence(config.seed).spawn(4)
    init_rng, oov_rng, shuffle_rng, mask_rng = map(np.random.default_rng, streams)

    if vocab is None:
        vocab, table = empty_vocabulary(config.d, config.dtype)
    if vocab.unk_index is None:
        register_oov(vocab, table, _corpus_tokens(dataset), oov_rng)
    params = initial_params if initial_params is not None else init_parameters(config, init_rng)

    optimized = _trainable(params, table)
    state = init_optimizer(optimized)
    dtype = config.dtype

    best_acc = -1.0
    best_values = None
    metrics = []
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(len(dataset))
        losses = []
        for start in range(0, len(order), config.batch_size):
            chunk = order[start:start + config.batch_size]
            grad_sum = {}
            for idx in chunk:
                pair = dataset[idx]
                graph = Graph(dtype)
                try:
                    run = run_forward(
                        graph, pair.premise, pair.hypothesis, vocab, table, params,
                        use_dual=config.use_dual,
                        dropout_rate=config.dropout_rate, rng=mask_rng,
                    )
                    loss = loss_node(graph, run.distribution, pair.gold)
                    losses.append(float(loss.value[0, 0]))
                    for p, g in backward(graph, loss).items():
                        prev = grad_sum.get(p)
                        grad_sum[p] = g if prev is None else prev + g
                except NonFiniteValue as exc:
                    raise NonFiniteValue(
                        f"epoch {epoch}, example {idx}: {exc}") from None
            scale = 1.0 / len(chunk)
            mean_grads = {p: g * scale for p, g in grad_sum.items()}
            adam_step(optimized, mean_grads, state, config)

        train_acc, _ = evaluate(dataset, params, config, vocab, table)
        dev_acc, _ = evaluate(dev_set, params, config, vocab, table)
        metrics.append(EpochMetrics(epoch, float(np.mean(losses)), train_acc, dev_acc))
        if dev_acc > best_acc:
            best_acc = dev_acc
            best_values = [p.value.copy() for p in optimized]

    if best_values is not None:
        for p, value in zip(optimized, best_values):
            p.value[...] = value
    return params, vocab, table, metrics


def evaluate(dataset, params, config, vocab, table):
    """Accuracy and gold-by-predicted confusion counts, without dropout.

    Pairs run one after another through the tape-free :func:`plain_forward`.
    """
    if not dataset:
        raise EmptyDataset("no examples to evaluate")

    confusion = np.zeros((len(LABELS), len(LABELS)), dtype=int)
    for pair in dataset:
        dist = plain_forward(pair.premise, pair.hypothesis, vocab, table, params,
                             use_dual=config.use_dual, dtype=config.dtype)
        confusion[LABELS.index(pair.gold), int(np.argmax(dist))] += 1
    accuracy = float(np.trace(confusion)) / len(dataset)
    return accuracy, confusion


def parameter_count(config, shared_reverse_scorer=None):
    """Closed-form count of trainable non-embedding scalars.

    Cross-checked in the tests against enumerating an actual parameter
    set, so the formula and the allocation code cannot drift apart.
    """
    if shared_reverse_scorer is None:
        shared_reverse_scorer = not config.separate_reverse_scorer
    k, r, d = config.k, config.r, config.d
    scorers = 1 if shared_reverse_scorer else 2
    return (
        (d + 2 * k + 1) * 5 * k
        + (2 * k + 2 * r + 1) * 5 * r
        + (2 * k + 1) * scorers
        + (r + 1) * 3
    )


# -- checkpoint format --------------------------------------------------
#
# magic "TENT1", then a little-endian uint32 header length, then a UTF-8
# JSON header (config, vocabulary, label order, precision, tensor
# manifest), then each tensor as two uint32 dims followed by its scalars
# little-endian, parameters in declaration order.  The frozen embedding
# rows ride along after the parameters so a checkpoint can be evaluated
# without the original vector file.

MAGIC = b"TENT1"


def _checkpoint_tensors(params, table):
    tensors = [(p.name, p.value) for p in params.trainable()]
    if table.trainable is not None:
        tensors.append((table.trainable.name, table.trainable.value))
    tensors.append(("embeddings.frozen", table.frozen))
    return tensors


def save_checkpoint(path, config, vocab, table, params):
    tensors = _checkpoint_tensors(params, table)
    scalar = "<f8" if config.precision == "double" else "<f4"
    header = {
        "config": asdict(config),
        "labels": list(LABELS),
        "precision": config.precision,
        "vocabulary": {
            "tokens": list(vocab.tokens),
            "frozen_count": vocab.frozen_count,
            "oov_count": vocab.oov_count,
            "unk_index": vocab.unk_index,
        },
        "tensors": [
            {"name": name, "rows": int(a.shape[0]), "cols": int(a.shape[1])}
            for name, a in tensors
        ],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(MAGIC)
        handle.write(struct.pack("<I", len(blob)))
        handle.write(blob)
        for _, a in tensors:
            handle.write(struct.pack("<II", a.shape[0], a.shape[1]))
            handle.write(np.ascontiguousarray(a, dtype=scalar).tobytes())


def load_checkpoint(path):
    """Read a checkpoint back into ``(config, vocab, table, params)``."""
    with open(path, "rb") as handle:
        if handle.read(len(MAGIC)) != MAGIC:
            raise CheckpointError("bad magic bytes")
        raw = handle.read(4)
        if len(raw) != 4:
            raise CheckpointError("truncated header length")
        (header_len,) = struct.unpack("<I", raw)
        try:
            header = json.loads(handle.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"unreadable header: {exc}") from None

        try:
            config = TrainConfig(**header["config"])
            vocab_info = header["vocabulary"]
            tokens = list(vocab_info["tokens"])
            counts = (vocab_info["frozen_count"], vocab_info["oov_count"])
            unk = vocab_info["unk_index"]
            manifest = header["tensors"]
        except (KeyError, TypeError) as exc:
            raise CheckpointError(f"incomplete header: {exc}") from None

        scalar = "<f8" if config.precision == "double" else "<f4"
        width = np.dtype(scalar).itemsize
        arrays = {}
        for entry in manifest:
            raw = handle.read(8)
            if len(raw) != 8:
                raise CheckpointError(f"truncated shape for {entry['name']}")
            rows, cols = struct.unpack("<II", raw)
            if (rows, cols) != (entry["rows"], entry["cols"]):
                raise CheckpointError(f"shape mismatch for {entry['name']}")
            data = handle.read(rows * cols * width)
            if len(data) != rows * cols * width:
                raise CheckpointError(f"truncated data for {entry['name']}")
            arrays[entry["name"]] = (
                np.frombuffer(data, dtype=scalar)
                .reshape(rows, cols)
                .astype(config.dtype)
            )
        trailing = handle.read(1)

    def affine(name, rows, cols):
        try:
            weight, bias = arrays[name + ".weight"], arrays[name + ".bias"]
        except KeyError as exc:
            raise CheckpointError(f"missing tensor {exc}") from None
        if weight.shape != (rows, cols) or bias.shape != (rows, 1):
            raise CheckpointError(f"tensor {name} is {weight.shape}, the config "
                                  f"widths need ({rows}, {cols})")
        return AffineMap.from_arrays(name, weight, bias)

    k, r, d = config.k, config.r, config.d
    reverse = (affine("reverse_scorer", 1, 2 * k)
               if config.separate_reverse_scorer else None)
    params = ModelParameters(
        meaning=LstmParameters(affine("meaning", 5 * k, d + 2 * k)),
        relation=LstmParameters(affine("relation", 5 * r, 2 * k + 2 * r)),
        scorer=affine("scorer", 1, 2 * k),
        classifier=affine("classifier", 3, r),
        reverse_scorer=reverse,
    )

    if "embeddings.frozen" not in arrays:
        raise CheckpointError("missing tensor 'embeddings.frozen'")
    table = EmbeddingTable(arrays["embeddings.frozen"])
    if "embeddings.oov" in arrays:
        table.trainable = Parameter("embeddings.oov", arrays["embeddings.oov"])
    oov = arrays.get("embeddings.oov", np.zeros((0, d)))
    if table.dim != d or oov.shape[1] != d:
        raise CheckpointError(f"embedding rows are not d = {d} wide")
    table_rows = (table.frozen.shape[0], oov.shape[0])
    if counts != table_rows or len(tokens) != sum(table_rows):
        raise CheckpointError(
            f"vocabulary of {len(tokens)} tokens with {counts[0]} frozen and "
            f"{counts[1]} trainable does not match the table's {table_rows[0]} "
            f"frozen and {table_rows[1]} trainable rows")
    if unk is not None and not (type(unk) is int and 0 <= unk < len(tokens)):
        raise CheckpointError(f"unk_index {unk!r} is outside the vocabulary")
    if trailing:
        raise CheckpointError("trailing bytes after the last tensor")
    vocab = Vocabulary(
        tokens=tokens,
        index={t: i for i, t in enumerate(tokens)},
        frozen_count=counts[0],
        oov_count=counts[1],
        unk_index=unk,
    )
    return config, vocab, table, params


def _audit_fixture(k, r, d, seed, pairs, leaf_range):
    """Deterministic model + tree pairs for the finite-difference audit.

    The draw is wider than training initialization (weights uniform on
    [-0.3, 0.3], embedding components with magnitudes in [0.3, 0.9]).
    At the training init scale many true gradients sit near 1e-9, below
    what a central difference at eps 1e-4 can resolve in double
    precision, so the audit would measure rounding noise instead of the
    backward rules.  The rules themselves are scale-independent: the
    same ops run either way.  Embedding magnitudes are bounded away
    from zero because a weight-scalar gradient carries its input
    component as a factor, and a near-zero component drags an otherwise
    healthy gradient under the measurable floor.
    """
    from .data import random_tree  # local import: data builds on this module's sibling

    scale = 0.3

    def bounded(shape, rng):
        return rng.choice([-1.0, 1.0], shape) * rng.uniform(0.3, 0.9, shape)

    rng = np.random.default_rng(seed)
    frozen_tokens = [f"w{i}" for i in range(8)]
    frozen = bounded((len(frozen_tokens), d), rng)
    vocab = Vocabulary(
        tokens=list(frozen_tokens),
        index={t: i for i, t in enumerate(frozen_tokens)},
        frozen_count=len(frozen_tokens),
    )
    table = EmbeddingTable(frozen)
    register_oov(vocab, table, ["q0", "q1"], rng)
    table.trainable.value[...] = bounded(table.trainable.value.shape, rng)

    def wide(name, out_dim, in_dim):
        w = rng.uniform(-scale, scale, (out_dim, in_dim))
        b = rng.uniform(-scale, scale, (out_dim, 1))
        return AffineMap.from_arrays(name, w, b)

    params = ModelParameters(
        meaning=LstmParameters(wide("meaning", 5 * k, d + 2 * k)),
        relation=LstmParameters(wide("relation", 5 * r, 2 * k + 2 * r)),
        scorer=wide("scorer", 1, 2 * k),
        classifier=wide("classifier", 3, r),
    )

    all_tokens = frozen_tokens + ["q0", "q1"]
    lo, hi = leaf_range
    drawn = []
    for _ in range(pairs):
        trees = []
        for _ in range(2):
            n = int(rng.integers(lo, hi + 1))
            leaves = [all_tokens[int(rng.integers(len(all_tokens)))] for _ in range(n)]
            trees.append(random_tree(rng, leaves))
        gold = LABELS[int(rng.integers(len(LABELS)))]
        drawn.append((trees[0], trees[1], gold))
    return vocab, table, params, drawn


def full_model_grad_check(k=8, r=8, d=10, seed=0, pairs=20, eps=1e-4,
                          leaf_range=(3, 7), use_dual=True,
                          fd_dtype=np.longdouble):
    """Finite-difference audit of the whole pipeline.

    Builds a small model with both frozen and trainable embedding rows,
    draws random tree pairs, and returns the worst relative error over
    every trainable scalar (embedding rows included) and every pair.
    Dual attention is on so the renormalization backward is covered.

    The analytic side runs on the double-precision tape; the difference
    quotients evaluate the independent tape-free forward, by default in
    extended precision.  A central difference at this eps carries about
    1e-12 of float64 rounding noise, which against the 1e-8 relative-
    error floor is the tolerance itself, so a double-precision quotient
    would flag healthy scalars whose gradients happen to be tiny.  The
    wider accumulator pushes the oracle's own noise three orders below
    the tolerance; ``fd_dtype=np.float64`` reproduces the noisy audit.
    """
    vocab, table, params, drawn = _audit_fixture(k, r, d, seed, pairs, leaf_range)
    checked = _trainable(params, table)

    worst = 0.0
    for premise, hypothesis, gold in drawn:

        def build():
            graph = Graph(np.float64)
            run = run_forward(graph, premise, hypothesis, vocab, table, params,
                              use_dual=use_dual)
            return graph, loss_node(graph, run.distribution, gold)

        def fd_loss():
            return plain_loss(premise, hypothesis, vocab, table, params, gold,
                              use_dual=use_dual, dtype=fd_dtype)

        worst = max(worst, grad_check(build, checked, eps, loss_fn=fd_loss))
    return worst
