"""Relation composition along the hypothesis tree and the root classifier.

A second, independent Tree-LSTM walks the hypothesis bottom-up.  Every
node (leaf or internal) feeds ``[h_i; context_i]`` as its input, where
``context_i`` is the attention-weighted premise vector for that node,
so local entailment judgments at the leaves are composed into a single
relation vector at the root.  The root vector is squashed by tanh,
mapped to three logits, and normalized; because tanh bounds every
logit in (-1, 1), no class probability can leave a fixed band no
matter the parameters.
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
from .autodiff import AffineMap, Graph, ShapeMismatch, sigmoid
from .composer import LstmParameters, encode_tree, walk_tree
from .embeddings import lookup

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
    reverse_scorer: AffineMap | None = None

    def affine_maps(self):
        maps = [self.meaning.block, self.relation.block, self.scorer]
        if self.reverse_scorer is not None:
            maps.append(self.reverse_scorer)
        maps.append(self.classifier)
        return maps

    def trainable(self):
        params = []
        for m in self.affine_maps():
            params.append(m.weight)
            params.append(m.bias)
        return params


def compose_relations(graph, hypothesis, hyp_vectors, contexts, params):
    """Run the relation Tree-LSTM over the hypothesis tree.

    Node ``i`` receives ``concat(hyp_vectors[i], contexts[i])`` as its
    input; leaves start from zero child states.  Returns one NodeState
    per node id (the relation vector is the ``h`` field).
    """
    if params.d_in != 2 * hyp_vectors[0].shape[0]:
        raise ShapeMismatch("relation block input must be twice the node width")
    return walk_tree(graph, hypothesis, params,
                     lambda i: graph.concat([hyp_vectors[i], contexts[i]]))


def classify(graph, relation_vector, classifier):
    """Class distribution from a relation vector: softmax(tanh(affine))."""
    if classifier.out_dim != len(LABELS):
        raise ShapeMismatch(f"classifier must emit {len(LABELS)} logits")
    return graph.softmax(graph.tanh(graph.affine(classifier, relation_vector)))


def cross_entropy(dist, gold):
    """Negative log-probability of the gold label under ``dist``."""
    if gold not in LABELS:
        raise InvalidLabel(f"unknown label {gold!r}")
    d = np.asarray(dist, dtype=float).reshape(-1)
    if d.size != len(LABELS):
        raise ShapeMismatch(f"distribution has {d.size} entries")
    return float(-np.log(d[LABELS.index(gold)]))


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
                use_dual=False, dropout_rate=0.0, rng=None, want_reverse=False):
    """Build the full pipeline on ``graph`` and return its key nodes.

    With ``use_dual`` the attended contexts use the renormalized product
    of the forward and reverse alignments; otherwise they use the
    forward alignment and the reverse view is only computed on request
    (``want_reverse``) as a diagnostic.

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
        rev_scores = scores
        if params.reverse_scorer is not None:
            rev_scores = score_matrix(graph, hyp_h, prem_h, params.reverse_scorer)
        rev = reverse_attention(graph, rev_scores)
        final = dual_attention(graph, fwd, rev)
    elif want_reverse:
        rev = reverse_attention(graph, scores)

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


def predict(premise, hypothesis, vocab, table, params, use_dual=False,
            dtype=np.float64):
    """Evaluate one pair without dropout and pick the argmax label.

    Equal probabilities resolve to the earliest label in LABELS order,
    which is what argmax over that fixed order produces.
    """
    graph = Graph(dtype)
    run = run_forward(graph, premise, hypothesis, vocab, table, params,
                      use_dual=use_dual, want_reverse=True)
    dist = run.distribution.value[:, 0].copy()
    relations = np.hstack([s.h.value for s in run.relation_states]).T
    return Prediction(
        label=LABELS[int(np.argmax(dist))],
        distribution=dist,
        forward_attention=run.forward_attention.value.copy(),
        reverse_attention=run.reverse_attention.value.copy(),
        final_attention=run.final_attention.value.copy(),
        relations=relations,
    )


def _plain_cell(w, b, x, h1, h2, c1, c2, k):
    z = w @ np.concatenate((x, h1, h2)) + b
    gates = sigmoid(z[:4 * k])
    u = np.tanh(z[4 * k:])
    c = gates[:k] * u + gates[k:2 * k] * c1 + gates[2 * k:3 * k] * c2
    return gates[3 * k:] * np.tanh(c), c


def _plain_encode(tree, inputs, w, b, k, dtype):
    zero = np.zeros((k, 1), dtype)
    hs = [None] * tree.node_count
    cs = [None] * tree.node_count
    # Node ids are child-before-parent by construction, so a straight
    # id sweep visits every subtree bottom-up.
    for i in range(tree.node_count):
        if tree.is_leaf(i):
            h, c = _plain_cell(w, b, inputs(i), zero, zero, zero, zero, k)
        else:
            lt, rt = tree.lefts[i], tree.rights[i]
            h, c = _plain_cell(w, b, inputs(i), hs[lt], hs[rt], cs[lt], cs[rt], k)
        hs[i], cs[i] = h, c
    return hs


def _plain_row_softmax(m):
    e = np.exp(m - m.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def plain_forward(premise, hypothesis, vocab, table, params,
                  use_dual=False, dtype=np.float64):
    """Tape-free twin of :func:`run_forward`; returns the distribution.

    Computes the same arithmetic without recording anything, so it is
    both a fast path for bulk evaluation and an independent reference
    implementation for the finite-difference audit (which runs it in
    extended precision to keep the oracle's own rounding error far
    below the tolerance it enforces).  No dropout: evaluation only.
    """
    k = params.meaning.k_out

    def cast(value):
        return np.asarray(value, dtype)

    mw, mb = cast(params.meaning.block.weight.value), cast(params.meaning.block.bias.value)
    rw, rb = cast(params.relation.block.weight.value), cast(params.relation.block.bias.value)

    def word(tree):
        zero_x = np.zeros((params.meaning.d_in, 1), dtype)

        def inputs(i):
            if not tree.is_leaf(i):
                return zero_x
            return cast(lookup(vocab, table, tree.tokens[i])).reshape(-1, 1)
        return inputs

    prem_h = _plain_encode(premise, word(premise), mw, mb, k, dtype)
    hyp_h = _plain_encode(hypothesis, word(hypothesis), mw, mb, k, dtype)
    prem_stack = np.concatenate(prem_h, axis=1)
    hyp_stack = np.concatenate(hyp_h, axis=1)

    def scores_for(scorer):
        sw, sb = cast(scorer.weight.value), cast(scorer.bias.value)
        hyp_part = (sw[:, :k] @ hyp_stack).T
        prem_part = (sw[:, k:] @ prem_stack).T
        return hyp_part + prem_part.T + sb

    scores = scores_for(params.scorer)
    final = _plain_row_softmax(scores)
    if use_dual:
        rev_scores = scores
        if params.reverse_scorer is not None:
            rev_scores = scores_for(params.reverse_scorer)
        reverse = _plain_row_softmax(rev_scores.T)
        raw = final * reverse.T + dtype(RENORM_FLOOR)
        final = raw / raw.sum(axis=1, keepdims=True)

    contexts = prem_stack @ final.T

    def relation_input(i):
        return np.concatenate((hyp_h[i], contexts[:, i:i + 1]))

    relations = _plain_encode(hypothesis, relation_input, rw, rb,
                              params.relation.k_out, dtype)

    cw, cb = cast(params.classifier.weight.value), cast(params.classifier.bias.value)
    logits = np.tanh(cw @ relations[hypothesis.root] + cb)
    e = np.exp(logits - logits.max())
    return (e / e.sum()).reshape(-1)


def plain_loss(premise, hypothesis, vocab, table, params, gold,
               use_dual=False, dtype=np.float64):
    """Cross-entropy of one pair via :func:`plain_forward`.

    Returns a numpy scalar in ``dtype`` rather than a Python float:
    difference quotients over this loss must subtract in the working
    precision, and a float() here would round that away.
    """
    if gold not in LABELS:
        raise InvalidLabel(f"unknown label {gold!r}")
    dist = plain_forward(premise, hypothesis, vocab, table, params,
                         use_dual=use_dual, dtype=dtype)
    return -np.log(dist[LABELS.index(gold)])


def node_confidences(relations, classifier):
    """Class distribution at every hypothesis node, one row per node."""
    w, b = classifier.weight.value, classifier.bias.value
    logits = np.tanh(relations @ w.T + b.T)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)
