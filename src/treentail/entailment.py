"""Relation composition along the hypothesis tree and the root classifier.

A second, independent Tree-LSTM walks the hypothesis bottom-up.  Every
node (leaf or internal) feeds ``[h_i; context_i]`` as its input, where
``context_i`` is the attention-weighted premise vector for that node,
so local entailment judgments at the leaves are composed into a single
relation vector at the root.  The root vector is squashed by tanh,
mapped to three logits, and normalized; because tanh bounds every
logit in (-1, 1), no class probability can leave a fixed band no
matter the parameters.

The tape (:func:`run_forward`) serves training and the gradient audits;
all inference runs the same operations in the same order tape-free
(:func:`predict`), which in extended precision is the audits' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import (
    RENORM_FLOOR,
    attended_context,
    dual_attention,
    forward_attention,
    reverse_attention,
    score_matrix,
)
from .autodiff import AffineMap, NonFiniteValue, ShapeMismatch
from .composer import LstmParameters, cell_values, columns, encode_tree, walk_tree
from .embeddings import lookup_rows

# Fixed label order; ties at prediction break toward the earlier label.
LABELS = ("contradiction", "neutral", "entailment")


class InvalidLabel(ValueError):
    pass


@dataclass
class ModelParameters:
    """Every trainable tensor except embedding rows, declaration-ordered."""

    meaning: LstmParameters
    relation: LstmParameters
    scorer: AffineMap
    classifier: AffineMap

    @classmethod
    def build(cls, k, r, d, affine):
        """The model's one layout at meaning width ``k``, relation width
        ``r`` and word width ``d``.  ``affine(name, rows, cols)`` supplies
        each map and is called in declaration order."""
        return cls(
            meaning=LstmParameters(affine("meaning", 5 * k, d + 2 * k)),
            relation=LstmParameters(affine("relation", 5 * r, 2 * k + 2 * r)),
            scorer=affine("scorer", 1, 2 * k),
            classifier=affine("classifier", 3, r),
        )

    def affine_maps(self):
        return [self.meaning.block, self.relation.block, self.scorer, self.classifier]

    def trainable(self):
        params = []
        for m in self.affine_maps():
            params.append(m.weight)
            params.append(m.bias)
        return params


def compose_relations(graph, hypothesis, hyp_vectors, contexts, params):
    """Run the relation Tree-LSTM over the hypothesis tree.

    Node ``i`` receives ``[hyp_vectors[i]; contexts[:, i]]`` as its
    input, where ``contexts`` is :func:`attended_context`'s matrix; a
    level stacks its nodes' inputs side by side and reads its contexts
    with one column op.  Leaves start from zero child states.  Returns
    one NodeState per node id (the relation vector is the ``h`` field).
    """
    if params.d_in != 2 * hyp_vectors[0].shape[0]:
        raise ShapeMismatch("relation block input must be twice the node width")

    def inputs(ids):
        return graph.concat([columns(graph, [hyp_vectors[i] for i in ids]),
                             graph.take_col(contexts, ids)])

    return walk_tree(graph, hypothesis, params, inputs)


def classify(graph, relation_vector, classifier):
    """Class distribution from a relation vector: softmax(tanh(affine))."""
    if classifier.out_dim != len(LABELS):
        raise ShapeMismatch(f"classifier must emit {len(LABELS)} logits")
    return graph.softmax(graph.tanh(graph.affine(classifier, relation_vector)))


def cross_entropy(dist, gold):
    """Negative log-probability of the gold label under ``dist``, in
    ``dist``'s dtype so difference quotients keep the working precision."""
    if gold not in LABELS:
        raise InvalidLabel(f"unknown label {gold!r}")
    d = np.asarray(dist).reshape(-1)
    if d.size != len(LABELS):
        raise ShapeMismatch(f"distribution has {d.size} entries")
    return -np.log(d[LABELS.index(gold)])


def loss_node(graph, dist_node, gold):
    """Tape version of :func:`cross_entropy`, for training graphs."""
    if gold not in LABELS:
        raise InvalidLabel(f"unknown label {gold!r}")
    return graph.neg(graph.log(graph.pick(dist_node, LABELS.index(gold))))


@dataclass
class ForwardPass:
    """Tape nodes of one premise/hypothesis forward run."""

    distribution: object
    forward_attention: object
    reverse_attention: object
    final_attention: object
    relation_states: list


def run_forward(graph, premise, hypothesis, vocab, table, params,
                use_dual=False, dropout_rate=0.0, rng=None):
    """Build the full pipeline on ``graph`` and return its key nodes.

    With ``use_dual`` the attended contexts use the renormalized product
    of the forward and reverse alignments; otherwise they use the
    forward alignment and ``reverse_attention`` is None.  Inference
    runs through the tape-free :func:`predict` instead.

    Note that because the pair scorer is affine in the concatenated
    node vectors, the score splits into a hypothesis-node term plus a
    premise-node term.  The first cancels inside the row softmax (every
    forward row is the same distribution over premise nodes) and the
    renormalized product then divides the reverse factor back out, so
    the dual alignment coincides with the forward one up to the
    renormalization floor.  ``use_dual`` is kept as a faithful part of
    the configuration surface; it changes the arithmetic, not the math.
    """
    prem_states = encode_tree(graph, premise, vocab, table, params.meaning,
                              dropout_rate, rng)
    hyp_states = encode_tree(graph, hypothesis, vocab, table, params.meaning,
                             dropout_rate, rng)
    hyp_h = [s.h for s in hyp_states]
    prem_h = [s.h for s in prem_states]

    scores = score_matrix(graph, hyp_h, prem_h, params.scorer)
    fwd = forward_attention(graph, scores)
    rev = None
    final = fwd
    if use_dual:
        rev = reverse_attention(graph, scores)
        final = dual_attention(graph, fwd, rev)

    contexts = attended_context(graph, final, prem_h)
    relations = compose_relations(graph, hypothesis, hyp_h, contexts, params.relation)
    dist = classify(graph, relations[hypothesis.root].h, params.classifier)
    return ForwardPass(dist, fwd, rev, final, relations)


@dataclass
class Prediction:
    """Plain-array view of one evaluated pair."""

    label: str
    distribution: np.ndarray        # (3,) in LABELS order
    forward_attention: np.ndarray   # (|hyp|, |prem|)
    reverse_attention: np.ndarray   # (|prem|, |hyp|)
    final_attention: np.ndarray     # (|hyp|, |prem|)
    relations: np.ndarray           # (|hyp|, r)


def _columns(arrays):
    return arrays[0] if len(arrays) == 1 else np.hstack(arrays)


def _plain_encode(tree, inputs, w, b, k):
    """:func:`walk_tree` without a tape: one :func:`cell_values` per level
    of ``tree.levels``, on operands stacked exactly as the tape stacks
    them.  The last bit of each state depends on that grouping (BLAS
    rounds a product over several columns differently from one column
    at a time), so the tape and this twin round alike only because they
    share the schedule and the memory layouts.  ``inputs(ids)`` is the
    level's input array or None.  Returns the ``(k, 1)`` state ``h`` of
    each node id.
    """
    hs = [None] * tree.node_count
    cs = [None] * tree.node_count
    for height, ids in enumerate(tree.levels):
        h1 = h2 = c1 = c2 = None
        if height:
            lt = [tree.lefts[i] for i in ids]
            rt = [tree.rights[i] for i in ids]
            h1, h2 = _columns([hs[i] for i in lt]), _columns([hs[i] for i in rt])
            c1, c2 = _columns([cs[i] for i in lt]), _columns([cs[i] for i in rt])
        h, c = cell_values(w, b, inputs(ids), h1, h2, c1, c2, k)[:2]
        for j, i in enumerate(ids):
            hs[i], cs[i] = h[:, j:j + 1], c[:, j:j + 1]
    return hs


def _plain_row_softmax(m):
    e = np.exp(m - m.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def predict(premise, hypothesis, vocab, table, params, use_dual=False,
            dtype=np.float64):
    """Evaluate one pair without a tape or dropout; returns a Prediction.

    The one inference forward, behind ``eval``, ``predict`` and
    ``inspect``.  Its outputs equal :func:`run_forward`'s bit for bit.
    Without ``use_dual``, where the tape records no reverse view, the
    reverse attention is the column softmax of the forward scores.
    Equal probabilities resolve to the earliest label in LABELS order.
    Raises :class:`NonFiniteValue` if the distribution is not finite.
    """
    k = params.meaning.k_out

    def cast(value):
        return np.asarray(value, dtype)

    mw, mb = cast(params.meaning.block.weight.value), cast(params.meaning.block.bias.value)
    rw, rb = cast(params.relation.block.weight.value), cast(params.relation.block.bias.value)

    def word(tree):
        def inputs(ids):
            if not tree.is_leaf(ids[0]):
                return None
            return cast(lookup_rows(vocab, table, [tree.tokens[i] for i in ids]))
        return inputs

    prem_h = _plain_encode(premise, word(premise), mw, mb, k)
    hyp_h = _plain_encode(hypothesis, word(hypothesis), mw, mb, k)
    prem_stack = np.concatenate(prem_h, axis=1)
    hyp_stack = np.concatenate(hyp_h, axis=1)

    sw, sb = cast(params.scorer.weight.value), cast(params.scorer.bias.value)
    scores = (sw[:, :k] @ hyp_stack).T + sw[:, k:] @ prem_stack + sb
    forward = final = _plain_row_softmax(scores)
    reverse = _plain_row_softmax(scores.T)
    if use_dual:
        raw = forward * reverse.T + dtype(RENORM_FLOOR)
        final = raw / raw.sum(axis=1, keepdims=True)

    contexts = prem_stack @ final.T

    def relation_input(ids):
        return np.concatenate((hyp_stack.take(ids, axis=1), contexts.take(ids, axis=1)))

    relations = _plain_encode(hypothesis, relation_input, rw, rb, params.relation.k_out)

    cw, cb = cast(params.classifier.weight.value), cast(params.classifier.bias.value)
    logits = np.tanh(cw @ relations[hypothesis.root] + cb)
    e = np.exp(logits - logits.max())
    dist = (e / e.sum()).reshape(-1)
    if not np.isfinite(dist).all():
        raise NonFiniteValue("non-finite class distribution")
    return Prediction(
        label=LABELS[int(np.argmax(dist))],
        distribution=dist,
        forward_attention=forward,
        reverse_attention=reverse,
        final_attention=final,
        relations=np.hstack(relations).T,
    )


def plain_forward(premise, hypothesis, vocab, table, params,
                  use_dual=False, dtype=np.float64):
    """The ``(3,)`` class distribution of :func:`predict`.  The
    finite-difference audit runs it in extended precision, keeping the
    oracle's own rounding error far below the tolerance it enforces."""
    return predict(premise, hypothesis, vocab, table, params,
                   use_dual=use_dual, dtype=dtype).distribution


def plain_loss(premise, hypothesis, vocab, table, params, gold,
               use_dual=False, dtype=np.float64):
    """Cross-entropy of one pair via :func:`plain_forward`, as a numpy
    scalar in ``dtype`` (see :func:`cross_entropy`)."""
    return cross_entropy(plain_forward(premise, hypothesis, vocab, table, params,
                                       use_dual=use_dual, dtype=dtype), gold)


def node_confidences(relations, classifier):
    """Class distribution at every hypothesis node, one row per node."""
    w, b = classifier.weight.value, classifier.bias.value
    logits = np.tanh(relations @ w.T + b.T)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)
