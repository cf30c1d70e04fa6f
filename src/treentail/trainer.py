"""Initialization, optimization, the training loop, and checkpoints.

Training is deliberately plain: one graph per minibatch, whose loss is
the mean of its pairs' losses, Adam with bias correction, and best-dev
parameter selection.  All randomness flows from one seed through named
child streams, so a rerun with the same configuration is bit-identical.

A batch's graph (:func:`~treentail.entailment.run_batch`) runs the
tape-free forward's operations on the batch's pairs, so its gradient is
the mean of the pairs' own :func:`~treentail.entailment.run_forward`
gradients up to rounding: the batch's products group the pairs'
columns, which rounds their last bits differently from one pair at a
time.  A batch of one is the pair's own tape, bit for bit.

A batch reads a few dozen rows of the trainable embedding table, and
its table gradient is zero outside the rows its leaves read.
:func:`~treentail.autodiff.gradients` hands that gradient back as a
:class:`RowGrad` on those rows, summed with
:func:`~treentail.autodiff.sum_rows`, and Adam keeps moments only for
the rows whose moments may be nonzero, the rows some batch has read so
far.  A row with zero moments and a zero gradient is an exact fixed
point of the update, so this gives the dense step's bits, and no array
sized to the table is made per batch or per step.  Adam's saving lasts
only while most rows are still unread: a table built from the training
corpus has every row read in the first epoch, and from then on Adam
updates the whole table as the dense step does.
"""

from __future__ import annotations

import json
import mmap
import os
import stat
import struct
from dataclasses import asdict, dataclass, field
from itertools import zip_longest
from typing import ClassVar

import numpy as np

from .autodiff import (
    AffineMap,
    Graph,
    NonFiniteValue,
    Parameter,
    RowGrad,
    ShapeMismatch,
    grad_check,
    gradients,
)
from .data import leaf_tokens
from .embeddings import EmbeddingTable, Vocabulary, empty_vocabulary, register_oov
from .entailment import (
    LABELS,
    ModelParameters,
    _forests,
    _wavefront,
    batch_loss,
    loss_node,
    run_batch,
    run_forward,
)

INIT_SCALE = 0.05
# Pairs per tape-free forward in `evaluate`; not a training setting, so a
# model evaluates alike however it was trained.
EVAL_CHUNK = 32


class EmptyDataset(ValueError):
    pass


class CheckpointError(ValueError):
    pass


@dataclass
class TrainConfig:
    """The training settings, one per ``train`` flag."""

    k: int = 150                 # meaning-composer width
    r: int = 150                 # relation-composer width
    d: int = 300                 # word vector width
    learning_rate: float = 0.001
    batch_size: int = 32
    dropout_rate: float = 0.2
    epochs: int = 10
    seed: int = 0
    use_dual: bool = False
    precision: str = "double"

    # Adam's constants, Kingma and Ba's defaults, are fixed.
    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    adam_epsilon: ClassVar[float] = 1e-8

    def __post_init__(self):
        for name, least in (("k", 1), ("r", 1), ("d", 1), ("batch_size", 1),
                            ("epochs", 0), ("seed", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < least:
                raise ValueError(f"{name} must be an integer of at least {least}, "
                                 f"got {value!r}")
        if type(self.use_dual) is not bool:
            raise ValueError(f"use_dual must be true or false, got {self.use_dual!r}")
        lr, rate = self.learning_rate, self.dropout_rate
        if not (isinstance(lr, float) and 0.0 < lr < 1.0):
            raise ValueError(f"learning_rate must be a float in (0, 1), got {lr!r}")
        if not (isinstance(rate, float) and 0.0 <= rate < 1.0):
            raise ValueError(f"dropout_rate must be a float in [0, 1), got {rate!r}")
        if self.precision not in ("double", "single"):
            raise ValueError("precision must be 'double' or 'single'")

    @property
    def dtype(self):
        return np.float64 if self.precision == "double" else np.float32


def _uniform_parameters(k, r, d, rng, scale, dtype):
    """Every map's weight, then bias, i.i.d. uniform on [-scale, scale]."""

    def uniform(name, rows, cols):
        w = rng.uniform(-scale, scale, (rows, cols))
        b = rng.uniform(-scale, scale, (rows, 1))
        return AffineMap.from_arrays(name, w.astype(dtype), b.astype(dtype))

    return ModelParameters.build(k, r, d, uniform)


def init_parameters(config, rng):
    """Draw every non-embedding tensor i.i.d. uniform on [-0.05, 0.05].

    The draw order is fixed by declaration order, so one seed pins the
    whole parameter set.
    """
    return _uniform_parameters(config.k, config.r, config.d, rng, INIT_SCALE,
                               config.dtype)


@dataclass
class OptimizerState:
    """First and second moment estimates per parameter, plus step count.

    ``live`` marks per parameter the rows whose moments may be nonzero:
    none at first, every row once a dense gradient arrives, and the rows
    of each :class:`RowGrad`.  ``first[p]`` and ``second[p]`` hold the
    moments of ``p``'s live rows only, in row order, as
    ``(live_count, cols)`` arrays.  ``scratch`` holds two flat work
    buffers per dtype, as long as the largest update so far, which
    every :func:`adam_step` reuses.
    """

    first: dict = field(default_factory=dict)
    second: dict = field(default_factory=dict)
    step: int = 0
    live: dict = field(default_factory=dict)
    scratch: dict = field(default_factory=dict)

    def dense_moments(self, p):
        """``p``'s first and second moments as arrays of ``p``'s shape,
        zero on the rows that are not live."""
        dense = np.zeros((2, *p.value.shape), p.value.dtype)
        dense[0, self.live[p]] = self.first[p]
        dense[1, self.live[p]] = self.second[p]
        return dense[0], dense[1]


def init_optimizer(params):
    state = OptimizerState()
    for p in params:
        n, cols = p.value.shape
        state.first[p] = np.zeros((0, cols), p.value.dtype)
        state.second[p] = np.zeros((0, cols), p.value.dtype)
        state.live[p] = np.zeros(n, bool)
    return state


def _go_live(state, p, rows):
    """Mark ``rows`` (not yet live) live and lay ``p``'s moments out again,
    with zeros on those rows."""
    live = state.live[p]
    kept = np.flatnonzero(live)
    live[rows] = True
    # Timed on 2 vCPU (20,001x300 float64, 300 rows of gradient), the
    # gathered update beats the in-place one on the whole arrays up to
    # about 3/4 of the rows live (56-74 against 106-117 ms at half,
    # 143-157 against 129-147 ms at 90%), so past 3/4 every row goes live.
    if 4 * np.count_nonzero(live) > 3 * len(live):
        live[:] = True
    ids = np.flatnonzero(live)
    for moments in (state.first, state.second):
        grown = np.zeros((len(ids), p.value.shape[1]), p.value.dtype)
        grown[np.searchsorted(ids, kept)] = moments[p]
        moments[p] = grown


def _checked_rows(p, grad):
    """``grad.rows`` as an index array, after checking that the rows are
    distinct rows of ``p`` and that ``grad.values`` holds one per row, in
    ``p``'s dtype."""
    rows = np.asarray(grad.rows)
    n, cols = p.value.shape
    if rows.ndim != 1 or (rows.size and rows.dtype.kind not in "iu"):
        raise ShapeMismatch(f"gradient rows for {p.name} must be a list of integers")
    if np.shape(grad.values) != (rows.size, cols):
        raise ShapeMismatch(f"gradient values of shape {np.shape(grad.values)} for "
                            f"{rows.size} rows of {p.name}")
    if grad.values.dtype != p.value.dtype:
        raise ShapeMismatch(f"gradient values of dtype {grad.values.dtype} for "
                            f"{p.name} of dtype {p.value.dtype}")
    rows = rows.astype(np.intp, copy=False)
    if rows.size and (rows.min() < 0 or rows.max() >= n):
        raise ShapeMismatch(f"gradient row outside the {n} rows of {p.name}")
    if len(set(rows.tolist())) < rows.size:
        raise ShapeMismatch(f"repeated gradient row for {p.name}")
    return rows


def _adam_update(value, m, v, g, a, b, config, c1, c2):
    """The textbook update of ``value`` and its moments in place, one
    IEEE operation at a time; ``a`` and ``b`` are work arrays of
    ``value``'s shape.  ``g`` may be ``b``: it is read only before ``b``
    is first written."""
    b1, b2 = config.beta1, config.beta2
    lr, eps = config.learning_rate, config.adam_epsilon
    np.multiply(b1, m, out=m)
    np.multiply(1.0 - b1, g, out=a)
    np.add(m, a, out=m)
    np.multiply(g, g, out=a)
    np.multiply(1.0 - b2, a, out=a)
    np.multiply(b2, v, out=v)
    np.add(v, a, out=v)
    np.divide(m, c1, out=a)
    np.multiply(lr, a, out=a)
    np.divide(v, c2, out=b)
    np.sqrt(b, out=b)
    np.add(b, eps, out=b)
    np.divide(a, b, out=a)
    value -= a


def adam_step(params, grads, state, config):
    """One bias-corrected Adam update, in place.

    A gradient is a dense array of the parameter's shape, a
    :class:`RowGrad`, or absent, which counts as zero.  The moments and
    the update are computed one IEEE operation at a time in the order
    of the textbook expression

        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * (g * g)
        p -= lr * (m / c1) / (sqrt(v / c2) + eps)

    so the result is bit-identical to evaluating it with temporaries.
    A row whose moments and gradient are zero is a fixed point of that
    expression, so only the rows ``state.live`` marks are updated, and
    only they have moments (see :class:`OptimizerState`).  While some
    rows are not live, the live rows of the parameter are updated as a
    gathered copy; once all are, in place.  Either way the bits are
    those of the dense step.  From a fresh state a zero gradient leaves
    a parameter as it is.  Raises :class:`ShapeMismatch` for a gradient
    that does not fit its parameter, and :class:`NonFiniteValue` naming
    the first parameter the update leaves with a NaN or Inf in a row it
    changed; graphs read parameters unchecked.
    """
    state.step += 1
    c1 = 1.0 - config.beta1 ** state.step
    c2 = 1.0 - config.beta2 ** state.step
    for p in params:
        g = grads.get(p)
        live = state.live[p]
        if type(g) is RowGrad:
            rows = _checked_rows(p, g)
            fresh = rows[~live[rows]]
            if fresh.size:
                _go_live(state, p, fresh)
        elif g is not None:
            if g.shape != p.value.shape:
                raise ShapeMismatch(f"gradient shape {g.shape} for {p.name}")
            if not live.all():
                _go_live(state, p, ~live)
        else:
            g = 0.0
        m, v = state.first[p], state.second[p]
        if not m.size:
            continue
        bufs = state.scratch.get(m.dtype)
        if bufs is None or bufs[0].size < m.size:
            bufs = state.scratch[m.dtype] = tuple(np.empty(m.size, m.dtype)
                                                  for _ in range(2))
        a, b = (buf[:m.size].reshape(m.shape) for buf in bufs)
        whole = len(m) == len(live)
        ids = None if whole else np.flatnonzero(live)
        if type(g) is RowGrad:
            b.fill(0.0)
            b[rows if whole else np.searchsorted(ids, rows)] = g.values
            g = b
        if whole:
            _adam_update(p.value, m, v, g, a, b, config, c1, c2)
            changed = p.value
        else:
            changed = p.value[ids]
            _adam_update(changed, m, v, g, a, b, config, c1, c2)
            p.value[ids] = changed
        if not np.isfinite(changed).all():
            raise NonFiniteValue(f"non-finite value in parameter '{p.name}' after "
                                 f"update {state.step}")


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    train_accuracy: float
    dev_accuracy: float


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
        register_oov(vocab, table, sorted(leaf_tokens(dataset)), oov_rng)
    params = initial_params if initial_params is not None else init_parameters(config, init_rng)

    optimized = _trainable(params, table)
    state = init_optimizer(optimized)
    dtype = config.dtype

    # evaluate's chunks, with their forests, built once for every epoch
    train_chunks, dev_chunks = _eval_chunks(dataset), _eval_chunks(dev_set)
    best_acc = -1.0
    best_values = None
    metrics = []
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(len(dataset))
        losses = []
        for start in range(0, len(order), config.batch_size):
            batch = [dataset[i] for i in order[start:start + config.batch_size]]
            masks = mask_rng.bit_generator.state
            graph = Graph(dtype)
            try:
                run = run_batch(graph, [(p.premise, p.hypothesis) for p in batch], vocab,
                                table, params, use_dual=config.use_dual,
                                dropout_rate=config.dropout_rate, rng=mask_rng)
                loss, pair_losses = batch_loss(graph, run.distributions,
                                               [p.gold for p in batch])
                grads = gradients(graph, loss)
            except NonFiniteValue as exc:
                raise _locate(exc, epoch, order[start:start + len(batch)], dataset,
                              vocab, table, params, config, masks) from None
            losses += pair_losses.value[0].tolist()
            # The next batch's tape is built without this one's alive.
            del graph, run, loss, pair_losses
            try:
                adam_step(optimized, grads, state, config)
            except NonFiniteValue as exc:
                raise NonFiniteValue(f"epoch {epoch}: {exc}") from None
            del grads

        train_acc, _ = _evaluate_chunks(train_chunks, params, config, vocab, table)
        dev_acc, _ = _evaluate_chunks(dev_chunks, params, config, vocab, table)
        metrics.append(EpochMetrics(epoch, float(np.mean(losses)), train_acc, dev_acc))
        if dev_acc > best_acc:
            best_acc = dev_acc
            # The last epoch's values are already in place.
            best_values = (None if epoch == config.epochs - 1
                           else [p.value.copy() for p in optimized])

    if best_values is not None:
        for p, value in zip(optimized, best_values):
            p.value[...] = value
    return params, vocab, table, metrics


def _locate(exc, epoch, indices, dataset, vocab, table, params, config, masks):
    """The :class:`NonFiniteValue` of a batch's tape, located: each pair
    of the batch runs on its own tape, in shuffle order, from the mask
    stream's state ``masks`` at the batch's start (so with the masks it
    had in the batch), and the first whose forward is not finite is named
    as ``epoch E, example I``.  If every pair's own forward is finite,
    only the epoch is."""
    rng = np.random.default_rng()
    rng.bit_generator.state = masks
    for idx in indices:
        pair = dataset[idx]
        graph = Graph(config.dtype)
        try:
            run = run_forward(graph, pair.premise, pair.hypothesis, vocab, table, params,
                              use_dual=config.use_dual, dropout_rate=config.dropout_rate,
                              rng=rng)
            loss_node(graph, run.distribution, pair.gold)
        except NonFiniteValue as own:
            return NonFiniteValue(f"epoch {epoch}, example {idx}: {own}")
    return NonFiniteValue(f"epoch {epoch}: {exc}")


def _eval_chunks(dataset):
    """``dataset`` in consecutive chunks of ``EVAL_CHUNK`` pairs, each as
    its two forests (:func:`~treentail.entailment._forests`) and its gold
    label ids, for :func:`_evaluate_chunks`."""
    if not dataset:
        raise EmptyDataset("no examples to evaluate")
    chunks = []
    for start in range(0, len(dataset), EVAL_CHUNK):
        chunk = dataset[start:start + EVAL_CHUNK]
        chunks.append((_forests([(p.premise, p.hypothesis) for p in chunk]),
                       [LABELS.index(p.gold) for p in chunk]))
    return chunks


def evaluate(dataset, params, config, vocab, table):
    """Accuracy and gold-by-predicted confusion counts, without dropout.

    Consecutive chunks of ``EVAL_CHUNK`` pairs each run through the
    tape-free forward together, as one
    :func:`~treentail.entailment.plain_distributions` call would, which
    walks the chunk's trees level by level together.  A probability may
    differ from the pair's own
    :func:`~treentail.entailment.plain_forward` in the last bit.
    """
    return _evaluate_chunks(_eval_chunks(dataset), params, config, vocab, table)


def _evaluate_chunks(chunks, params, config, vocab, table):
    """:func:`evaluate` of the chunks :func:`_eval_chunks` built."""
    confusion = np.zeros((len(LABELS), len(LABELS)), dtype=int)
    for forests, golds in chunks:
        dists = _wavefront(*forests, vocab, table, params, config.use_dual, config.dtype,
                           attention=False)[0]
        np.add.at(confusion, (golds, np.argmax(dists, axis=1)), 1)
    accuracy = float(np.trace(confusion)) / sum(len(golds) for _, golds in chunks)
    return accuracy, confusion


def parameter_count(config):
    """Closed-form count of trainable non-embedding scalars.

    Cross-checked in the tests against enumerating an actual parameter
    set, so the formula and the allocation code cannot drift apart.
    """
    k, r, d = config.k, config.r, config.d
    return (
        (d + 2 * k + 1) * 5 * k
        + (2 * k + 2 * r + 1) * 5 * r
        + (2 * k + 1)
        + (r + 1) * 3
    )


# -- checkpoint format --------------------------------------------------
#
# magic "TENT1", then a little-endian uint32 header length, then a UTF-8
# JSON header (config, vocabulary, label order, precision, tensor
# manifest), then each tensor as two uint32 dims followed by its scalars
# little-endian, parameters in declaration order.  The frozen embedding
# rows ride along after the parameters so a checkpoint can be evaluated
# without the original vector file.  The writer pads the header with
# trailing spaces (still valid JSON) until the first tensor's scalars
# start at a multiple of 8 bytes, so every tensor's scalars start at a
# multiple of their own size: the loader maps the table's rows in place,
# and NumPy reads an unaligned array only through a whole copy.  Files
# written before the padding load too, with their tables copied once.

MAGIC = b"TENT1"


def _checkpoint_tensors(params, table):
    tensors = [(p.name, p.value) for p in params.trainable()]
    if table.trainable is not None:
        tensors.append((table.trainable.name, table.trainable.value))
    tensors.append(("embeddings.frozen", table.frozen))
    return tensors


def _manifest(layout):
    return [{"name": name, "rows": int(rows), "cols": int(cols)}
            for name, (rows, cols) in layout]


def _new_file_beside(path):
    """Create a new, uniquely named file in ``path``'s directory and
    return its name and a write descriptor.  Its mode is what
    ``open(path, "wb")`` gives: ``path``'s own mode if it exists, else
    0o666 less the umask."""
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mode = None
    directory, name = os.path.split(path)
    while True:
        temporary = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
        try:
            fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            continue
        if mode is not None:
            os.fchmod(fd, mode)
        return temporary, fd


def save_checkpoint(path, config, vocab, table, params):
    """Write the model, its vocabulary and its table to ``path``.

    The file is written beside ``path`` under a temporary name and then
    renamed over it, so a process that has loaded the old file (and so
    maps its table) keeps reading the old bytes, and a save that fails
    leaves the old file as it was and no temporary behind.
    """
    tensors = _checkpoint_tensors(params, table)
    scalar = np.dtype(config.dtype).newbyteorder("<")
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
        "tensors": _manifest((name, a.shape) for name, a in tensors),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    blob += b" " * (-(len(MAGIC) + 4 + len(blob) + 8) % 8)
    # Through a symlink, as open(path, "wb") would write.
    path = os.path.realpath(path)
    temporary, fd = _new_file_beside(path)
    try:
        with open(fd, "wb") as handle:
            handle.write(MAGIC)
            handle.write(struct.pack("<I", len(blob)))
            handle.write(blob)
            for _, a in tensors:
                handle.write(struct.pack("<II", a.shape[0], a.shape[1]))
                handle.write(np.ascontiguousarray(a, dtype=scalar).tobytes())
        os.replace(temporary, path)
    except BaseException:
        os.remove(temporary)
        raise


def load_checkpoint(path):
    """Read a checkpoint back into ``(config, vocab, table, params)``.

    The header's config and vocabulary counts fix the layout, the same
    one :func:`save_checkpoint` writes: the model is built empty from
    them and each weight tensor is read straight into its array.  A
    manifest, size, tensor shape, label order or precision other than
    that layout's raises :class:`CheckpointError`, and every check runs
    before the table is touched.

    The embedding table is not read: the file is mapped copy-on-write,
    and ``table.frozen`` and ``table.trainable.value`` are views of its
    rows, so a load allocates nothing sized to the table and a
    prediction pages in only the rows its leaves read.  Writing into
    the views changes this process's copy, never the file.  Another
    program must not truncate or rewrite the file in place while the
    model is loaded; :func:`save_checkpoint` replaces it instead.  The
    unaligned table of a file written before the header padding is
    copied once instead.
    """
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        if handle.read(len(MAGIC)) != MAGIC:
            raise CheckpointError("bad magic bytes")
        raw = handle.read(4)
        if len(raw) != 4:
            raise CheckpointError("truncated header length")
        (header_len,) = struct.unpack("<I", raw)
        try:
            # min: a damaged length must not size a read past the file's end.
            header = json.loads(handle.read(min(header_len, size)).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"unreadable header: {exc}") from None

        try:
            fields = dict(header["config"])
            # Files written while a separate reverse scorer was an option
            # carry its switch; only its off state is this model.
            legacy_reverse = fields.pop("separate_reverse_scorer", False)
            # Adam's constants were settings in older files; nothing reads them.
            for name in ("beta1", "beta2", "adam_epsilon"):
                fields.pop(name, None)
            config = TrainConfig(**fields)
            vocab_info = header["vocabulary"]
            tokens = list(vocab_info["tokens"])
            counts = (vocab_info["frozen_count"], vocab_info["oov_count"])
            unk = vocab_info["unk_index"]
            labels, precision = header["labels"], header["precision"]
            manifest = list(header["tensors"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"incomplete header: {exc}") from None
        if legacy_reverse is not False:
            raise CheckpointError("separate_reverse_scorer is no longer supported; "
                                  f"the header sets it to {legacy_reverse!r}")
        if labels != list(LABELS):
            raise CheckpointError(f"labels {labels!r:.80} are not {list(LABELS)}")
        if precision != config.precision:
            raise CheckpointError(f"header precision {precision!r:.40} is not the "
                                  f"config's {config.precision!r}")
        if not (all(type(n) is int and n >= 0 for n in counts)
                and len(tokens) == sum(counts)):
            raise CheckpointError(
                f"vocabulary of {len(tokens)} tokens does not split into "
                f"{counts[0]!r:.20} frozen and {counts[1]!r:.20} trainable rows")
        if unk is not None and not (type(unk) is int and 0 <= unk < len(tokens)):
            raise CheckpointError(f"unk_index {unk!r} is outside the vocabulary")
        try:
            "".join(tokens)  # raises TypeError at a token that is not a string
            index = dict(zip(tokens, range(len(tokens))))
        except TypeError:
            index = None
        # The fallback row's name (<unk>) may also name one other row; the
        # index, like training's, maps that name to the later of the two.
        if index is None or not (len(index) == len(tokens) or (
                len(index) == len(tokens) - 1 and unk is not None
                and (index[tokens[unk]] != unk or tokens.index(tokens[unk]) != unk))):
            raise CheckpointError("vocabulary tokens must be distinct strings "
                                  "apart from the fallback row")

        scalar = np.dtype(config.dtype).newbyteorder("<")
        # Checked before anything sized by the header is allocated.
        d, body = config.d, size - handle.tell()
        scalars = parameter_count(config) + sum(counts) * d
        if body < scalars * scalar.itemsize:
            raise CheckpointError(f"truncated data: {body} bytes cannot hold the "
                                  f"{scalars} scalars the header declares")

        def empty(name, rows, cols):
            return AffineMap.from_arrays(name, np.empty((rows, cols), scalar),
                                         np.empty((rows, 1), scalar))

        params = ModelParameters.build(config.k, config.r, d, empty)
        weights = [(p.name, p.value) for p in params.trainable()]
        # The table's tensors in _checkpoint_tensors' order.
        tables = [("embeddings.oov", (counts[1], d))] if counts[1] else []
        tables.append(("embeddings.frozen", (counts[0], d)))
        layout = [(name, a.shape) for name, a in weights] + tables
        expected = _manifest(layout)
        if manifest != expected:
            i, got, want = next(
                (i, got, want) for i, (got, want)
                in enumerate(zip_longest(manifest, expected, fillvalue="no entry"))
                if got != want)
            raise CheckpointError(f"tensor manifest entry {i} is {got!s:.80}; the "
                                  f"config and vocabulary lay out {want}")
        need = sum(8 + m * n * scalar.itemsize for _, (m, n) in layout)
        if body != need:
            problem = "truncated data" if body < need else "trailing bytes"
            raise CheckpointError(f"{problem}: {body} bytes after the header, "
                                  f"the layout takes {need}")
        for name, a in weights:
            if struct.unpack("<II", handle.read(8)) != a.shape:
                raise CheckpointError(f"shape mismatch for {name}")
            handle.readinto(a)
        offsets = []
        for name, shape in tables:
            if struct.unpack("<II", handle.read(8)) != shape:
                raise CheckpointError(f"shape mismatch for {name}")
            offsets.append(handle.tell())
            handle.seek(shape[0] * shape[1] * scalar.itemsize, os.SEEK_CUR)
        try:
            mapping = mmap.mmap(handle.fileno(), size, access=mmap.ACCESS_COPY)
        except (OSError, ValueError) as exc:
            raise CheckpointError(f"cannot map the embedding table: {exc}") from None

    views = []
    for (_, shape), offset in zip(tables, offsets):
        view = np.ndarray(shape, scalar, buffer=mapping, offset=offset)
        views.append(view if view.flags.aligned else view.copy())
    table = EmbeddingTable(views[-1])
    if counts[1]:
        table.trainable = Parameter("embeddings.oov", views[0])
    vocab = Vocabulary(tokens=tokens, index=index, frozen_count=counts[0],
                       oov_count=counts[1], unk_index=unk)
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

    params = _uniform_parameters(k, r, d, rng, 0.3, np.float64)

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
                          leaf_range=(3, 7)):
    """Finite-difference audit of the whole pipeline.

    Builds a small model with both frozen and trainable embedding rows,
    draws random tree pairs, and returns the worst relative error over
    every trainable scalar (embedding rows included) and every pair.
    Dual attention is on so the renormalization backward is covered.

    The analytic side runs on the double-precision tape; the difference
    quotients evaluate the independent tape-free forward in extended
    precision.  A central difference at this eps carries about
    1e-12 of float64 rounding noise, which against the 1e-8 relative-
    error floor is the tolerance itself, so a double-precision quotient
    would flag healthy scalars whose gradients happen to be tiny.  The
    wider accumulator pushes the oracle's own noise three orders below
    the tolerance.  A NaN error on any pair makes the result NaN.
    """
    TrainConfig(k=k, r=r, d=d, seed=seed)  # checks the widths and the seed
    if pairs < 1:
        raise ValueError(f"pairs must be at least 1, got {pairs}")
    vocab, table, params, drawn = _audit_fixture(k, r, d, seed, pairs, leaf_range)
    checked = _trainable(params, table)

    worst = 0.0
    for premise, hypothesis, gold in drawn:

        def build():
            graph = Graph(np.float64)
            run = run_forward(graph, premise, hypothesis, vocab, table, params,
                              use_dual=True)
            return graph, loss_node(graph, run.distribution, gold)

        fd_loss = _audit_oracle(premise, hypothesis, gold, vocab, table, params)
        worst = np.maximum(worst, grad_check(build, checked, eps, stacked_loss=fd_loss))
    return float(worst)


def _audit_oracle(premise, hypothesis, gold, vocab, table, params):
    """The audit's ``stacked_loss`` for one pair (see
    :func:`~treentail.autodiff.grad_check`): :func:`plain_loss` in
    extended precision with dual attention at every value in a stack of
    one parameter's values, from one tape-free forward over the stack,
    on the pair's forests built once for every chunk."""
    forests = _forests([(premise, hypothesis)])
    label = LABELS.index(gold)

    def losses(param, stack):
        dists = _wavefront(*forests, vocab, table, params, use_dual=True,
                           dtype=np.longdouble, attention=False, stand_in=(param, stack))[0]
        return -np.log(dists[..., 0, label])

    return losses
