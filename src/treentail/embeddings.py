"""Pretrained word vectors plus trainable rows for everything else.

Pretrained rows are loaded once and never updated; tokens outside the
pretrained file (plus one shared fallback row) get trainable rows.
Tokens are stored verbatim and case-folding happens only at lookup:
exact match first, then the lowercased form, then the fallback row.

:func:`embedding_node` is the only op that reads ``table.trainable``
on a tape, and it hands the table a :class:`RowGrad` on the rows its
tokens resolve to, so the table's gradient is zero outside them and the
trainer hands the optimizer those rows alone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Parameter, RowGrad

UNK_TOKEN = "<unk>"
INIT_SCALE = 0.05
# A field of a vector line: a run of anything but ASCII whitespace, so
# a token may hold a no-break space or any other Unicode space.
_FIELD = re.compile(r"[^ \t\n\r\v\f]+")


class EmbeddingFileError(ValueError):
    """Base class for malformed pretrained-vector files."""

    def __init__(self, message, line_no=None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class EmptyFile(EmbeddingFileError):
    pass


class InconsistentDimension(EmbeddingFileError):
    pass


class UnreadableFloat(EmbeddingFileError):
    pass


class UnknownToken(KeyError):
    """A token with no row of its own and no fallback row registered."""

    def __str__(self):
        return str(self.args[0])


class CalledTwice(RuntimeError):
    pass


@dataclass
class Vocabulary:
    """Token-to-row mapping.  Rows below ``frozen_count`` are pretrained."""

    tokens: list = field(default_factory=list)
    index: dict = field(default_factory=dict)
    frozen_count: int = 0
    oov_count: int = 0
    unk_index: int | None = None

    def __len__(self):
        return len(self.tokens)


@dataclass
class EmbeddingTable:
    """Row storage split by trainability.

    ``frozen`` is a plain array the optimizer never sees; ``trainable``
    is a Parameter holding the fallback row and one row per registered
    out-of-vocabulary token.
    """

    frozen: np.ndarray
    trainable: Parameter | None = None

    @property
    def dim(self):
        return self.frozen.shape[1]


def empty_vocabulary(dim, dtype=np.float64):
    """A vocabulary with no pretrained rows, for corpora trained from scratch."""
    return Vocabulary(), EmbeddingTable(np.zeros((0, dim), dtype=dtype))


def load_pretrained(path, restrict_to=None, dtype=np.float64):
    """Read a UTF-8 text file of ``token v1 ... vd`` lines.

    Fields are separated by ASCII whitespace only, and a leading
    byte-order mark is not part of the first token.  The width ``d`` is
    fixed by the first line.  ``restrict_to`` keeps
    only the listed tokens, which makes loading a multi-gigabyte vector
    file affordable when the corpus vocabulary is known up front.
    """
    if restrict_to is not None:
        restrict_to = set(restrict_to)

    tokens, rows, dim = [], [], None
    seen = set()
    try:
        with open(path, encoding="utf-8-sig") as handle:
            for line_no, line in enumerate(handle, 1):
                parts = _FIELD.findall(line)
                if not parts:
                    continue
                token, fields = parts[0], parts[1:]
                if dim is None:
                    dim = len(fields)
                    if dim == 0:
                        raise InconsistentDimension("first line has no vector fields",
                                                    line_no)
                elif len(fields) != dim:
                    raise InconsistentDimension(
                        f"expected {dim} fields, found {len(fields)}", line_no
                    )
                if restrict_to is not None and token not in restrict_to:
                    continue
                if token in seen:
                    continue
                try:
                    row = [float(f) for f in fields]
                except ValueError as exc:
                    raise UnreadableFloat(str(exc), line_no) from None
                seen.add(token)
                tokens.append(token)
                rows.append(row)
    except UnicodeDecodeError as exc:
        raise EmbeddingFileError(f"{path} is not UTF-8: {exc.reason} "
                                 f"0x{exc.object[exc.start]:02x}") from None

    if dim is None:
        raise EmptyFile("no vector lines in file")

    vocab = Vocabulary(
        tokens=tokens,
        index={t: i for i, t in enumerate(tokens)},
        frozen_count=len(tokens),
    )
    frozen = np.array(rows, dtype=dtype).reshape(len(tokens), dim)
    return vocab, EmbeddingTable(frozen)


def register_oov(vocab, table, corpus_tokens, rng):
    """Add trainable rows for unseen corpus tokens plus the fallback row.

    May run once per model; a second call raises :class:`CalledTwice`.
    Tokens already reachable through exact or lowercase match keep their
    pretrained rows.  A corpus token ``<unk>`` gets no row of its own: it
    is the fallback row's name, and that row is the one it resolves to.
    New rows are drawn uniform on [-0.05, 0.05] in sorted token order so
    registration is reproducible.
    """
    if vocab.unk_index is not None:
        raise CalledTwice("out-of-vocabulary rows already registered")

    missing = sorted(
        {t for t in corpus_tokens if t not in vocab.index and t.lower() not in vocab.index}
        - {UNK_TOKEN}
    )
    new_tokens = [UNK_TOKEN] + missing
    dtype = table.frozen.dtype
    rows = rng.uniform(-INIT_SCALE, INIT_SCALE, (len(new_tokens), table.dim))

    vocab.unk_index = len(vocab.tokens)
    for t in new_tokens:
        vocab.index[t] = len(vocab.tokens)
        vocab.tokens.append(t)
    vocab.oov_count = len(new_tokens)
    table.trainable = Parameter("embeddings.oov", rows.astype(dtype))


def resolve(vocab, token):
    """Row index for a token: exact, then lowercased, then fallback."""
    idx = vocab.index.get(token)
    if idx is None:
        idx = vocab.index.get(token.lower())
    if idx is None:
        idx = vocab.unk_index
    if idx is None:
        raise UnknownToken(f"token {token!r} unknown and no fallback row registered")
    return idx


def lookup(vocab, table, token):
    """The embedding row for a token (read-only; length ``dim``)."""
    idx = resolve(vocab, token)
    if idx < vocab.frozen_count:
        return table.frozen[idx]
    return table.trainable.value[idx - vocab.frozen_count, :]


def trainable_rows(vocab, tokens):
    """Each token's row counted from the first trainable row, resolved
    once per token: ``i >= 0`` is row ``i`` of ``table.trainable``, and a
    pretrained row is ``i + vocab.frozen_count`` of ``table.frozen``."""
    first = vocab.frozen_count
    return np.array([resolve(vocab, t) - first for t in tokens], np.intp)


def _read_rows(vocab, table, rows, trainable=None):
    """The ``(dim, m)`` array of the rows :func:`trainable_rows` gave,
    with one ``take`` from each table part.  ``trainable``, if given,
    stands in for ``table.trainable.value``; an ``(S, R, dim)`` stack of
    tables gives the ``(S, dim, m)`` stack of reads."""
    trained = np.flatnonzero(rows >= 0)
    if trained.size == rows.size:
        values = table.trainable.value if trainable is None else trainable
        out = values.take(rows, axis=-2)
    else:
        # A trainable row's id clips to the last pretrained row, and the
        # trainable take below overwrites it.
        out = table.frozen.take(rows + vocab.frozen_count, axis=0, mode="clip")
        if trained.size:
            values = table.trainable.value if trainable is None else trainable
            if values.ndim > 2:
                out = np.broadcast_to(out, values.shape[:-2] + out.shape).copy()
            out[..., trained, :] = values.take(rows[trained], axis=-2)
    return np.ascontiguousarray(out.mT)


def lookup_rows(vocab, table, tokens, trainable=None):
    """The ``(dim, m)`` array whose column ``j`` is ``tokens[j]``'s row,
    read from ``trainable`` in place of the trainable table if given
    (see :func:`_read_rows`)."""
    return _read_rows(vocab, table, trainable_rows(vocab, tokens), trainable)


def embedding_node(graph, vocab, table, tokens):
    """:func:`lookup_rows` as one ``take_row`` graph node.  Its vjp hands
    the table one :class:`RowGrad` on the trainable rows, last token
    first, so a repeated token repeats its row; pretrained rows are
    constant."""
    rows = trainable_rows(vocab, tokens)
    value = _read_rows(vocab, table, rows)
    trained = np.flatnonzero(rows >= 0)[::-1]
    if not trained.size:
        return graph.constant(value, op="take_row")
    read = rows[trained]

    def vjp(g):
        return (RowGrad(read, g.T[trained]),)

    return graph.record(value, (graph.parameter(table.trainable),), vjp, "take_row")
