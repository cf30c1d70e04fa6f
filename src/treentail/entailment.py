"""Relation composition along the hypothesis tree and the root classifier.

A second, independent Tree-LSTM walks the hypothesis bottom-up.  Every
node (leaf or internal) feeds ``[h_i; context_i]`` as its input, where
``context_i`` is the attention-weighted premise vector for that node,
so local entailment judgments at the leaves are composed into a single
relation vector at the root.  The root vector is squashed by tanh,
mapped to three logits, and normalized; because tanh bounds every
logit in (-1, 1), no class probability can leave a fixed band no
matter the parameters.

The tape serves training (:func:`run_batch`, one graph per minibatch)
and the gradient audits (:func:`run_forward`, its batch of one).  All
inference runs the same operations tape-free, on a list of pairs at
once (:func:`plain_distributions`).  Both paths walk the pairs'
premises as one forest and their hypotheses as another, so each tree
height is one cell call over every pair, and both group and lay out
every operand alike: on the same pairs they agree bit for bit.
:func:`predict` is the tape-free forward on a batch of one; in extended
precision it is the audits' oracle, which evaluates a chunk of perturbed
copies of one parameter as one forward over a stack of models.
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
    score_terms,
)
from .autodiff import AffineMap, NonFiniteValue, ShapeMismatch
from .composer import LstmParameters, as_matrix, encode_forest, walk_tree, walk_values
from .embeddings import lookup_rows
from .trees import forest_schedule

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


def compose_relations(graph, hypothesis, hyp_states, contexts, params):
    """Run the relation Tree-LSTM over the hypothesis tree.

    Node ``i`` receives ``[h_i; contexts[:, i]]`` as its input, where
    ``hyp_states`` is the hypothesis's ``(k, n)`` h matrix and
    ``contexts`` :func:`attended_context`'s ``(k, n)`` matrix; one
    ``concat`` of the two is the walk's every-node input.  Leaves start
    from zero child states.  Returns the relation walk's
    :class:`~treentail.composer.TreeStates`: its ``h`` is the ``(r, n)``
    matrix of relation vectors, and its last column is the root's.
    """
    return _relation_walk(graph, forest_schedule((hypothesis,)),
                          as_matrix(graph, hyp_states), contexts, params)


def _relation_walk(graph, schedule, hyp, contexts, params):
    """:func:`compose_relations` over the hypotheses' forest ``schedule``."""
    if params.d_in != 2 * hyp.shape[0]:
        raise ShapeMismatch("relation block input must be twice the node width")
    return walk_tree(graph, schedule, params, graph.concat([hyp, contexts]))


def classify(graph, relation_vectors, classifier):
    """Class distributions from relation vectors, one per column:
    softmax(tanh(affine)) of each."""
    if classifier.out_dim != len(LABELS):
        raise ShapeMismatch(f"classifier must emit {len(LABELS)} logits")
    return graph.softmax(graph.tanh(graph.affine(classifier, relation_vectors)), axis=0)


def cross_entropy(dist, gold):
    """Negative log-probability of the gold label under ``dist``, in
    ``dist``'s dtype so difference quotients keep the working precision."""
    if gold not in LABELS:
        raise InvalidLabel(f"unknown label {gold!r}")
    d = np.asarray(dist).reshape(-1)
    if d.size != len(LABELS):
        raise ShapeMismatch(f"distribution has {d.size} entries")
    return -np.log(d[LABELS.index(gold)])


def batch_loss(graph, distributions, golds):
    """Tape version of :func:`cross_entropy` over a batch: ``distributions``
    is the ``(3, B)`` node whose column ``j`` is pair ``j``'s, ``golds``
    the pairs' B labels.  Returns ``(mean, losses)``: the ``(1, 1)`` mean
    of the pairs' losses, the training loss, and the ``(1, B)`` node of
    the losses themselves.  For one pair both are the same node."""
    for gold in golds:
        if gold not in LABELS:
            raise InvalidLabel(f"unknown label {gold!r}")
    if distributions.shape != (len(LABELS), len(golds)):
        raise ShapeMismatch(f"{len(golds)} labels for distributions of shape "
                            f"{distributions.shape}")
    b = len(golds)
    picked = graph.gather(distributions, [[LABELS.index(gold) for gold in golds]],
                          [list(range(b))])
    losses = graph.neg(graph.log(picked))
    if b == 1:
        return losses, losses
    return graph.matmul(losses, graph.constant(np.full((b, 1), 1.0 / b))), losses


def loss_node(graph, dist_node, gold):
    """Tape version of :func:`cross_entropy` for one pair's ``(3, 1)``
    distribution node: :func:`batch_loss` of a batch of one."""
    return batch_loss(graph, dist_node, [gold])[0]


@dataclass
class ForwardPass:
    """Tape nodes of one premise/hypothesis forward run."""

    distribution: object
    forward_attention: object
    reverse_attention: object
    final_attention: object
    relation_states: object  # (r, |hyp|) node; column i is node i's relation vector


@dataclass
class BatchPass:
    """Tape nodes of a batch's forward run, pairs in the order given."""

    distributions: object    # (3, B) node; column j is pair j's distribution
    attention: list          # pair j's (forward, reverse, final) alignment nodes
    relation_states: object  # (r, n) node over the hypotheses' forest


def run_forward(graph, premise, hypothesis, vocab, table, params,
                use_dual=False, dropout_rate=0.0, rng=None):
    """Build the full pipeline on ``graph`` and return its key nodes:
    :func:`run_batch` of the one pair.

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
    run = run_batch(graph, [(premise, hypothesis)], vocab, table, params,
                    use_dual, dropout_rate, rng)
    return ForwardPass(run.distributions, *run.attention[0], run.relation_states)


def run_batch(graph, pairs, vocab, table, params, use_dual=False, dropout_rate=0.0,
              rng=None):
    """The tape forward of a non-empty list of ``(premise, hypothesis)``
    pairs, on one ``graph``; returns its :class:`BatchPass`.

    The operations are :func:`_wavefront`'s, so the distributions equal
    :func:`plain_distributions` on the same pairs bit for bit: the
    premises walk as one forest and the hypotheses as another (one
    ``lstm_cell`` op each), the scorer's terms are one product per
    forest, each pair's attention and contexts are ops on column blocks
    of the two h matrices, the relation walk covers every hypothesis as
    one forest over the hypotheses' schedule, and one classifier op takes
    every root.  A batch of one records no block and is
    :func:`run_forward`.  With ``rng``, the dropout draws are taken leaf
    by leaf, pair by pair, each pair's premise before its hypothesis: the
    draws each pair would get on its own tape, in the same order.
    """
    forests = _forests(pairs)
    (prem_schedule, _), (hyp_schedule, _) = forests
    draws = (None, None)
    if rng is not None and dropout_rate:
        d = params.meaning.d_in
        drawn = [rng.random(((tree.node_count + 1) // 2, d)) for pair in pairs for tree in pair]
        draws = (np.concatenate(drawn[0::2]), np.concatenate(drawn[1::2]))
    prem, hyp = (encode_forest(graph, schedule, words, vocab, table, params.meaning,
                               dropout_rate, draws=drawn).h
                 for (schedule, words), drawn in zip(forests, draws))

    hyp_terms, prem_terms = score_terms(graph, hyp, prem, params.scorer)
    bias = graph.parameter(params.scorer.bias)
    prem_at, hyp_at = prem_schedule[0], hyp_schedule[0]
    one = len(pairs) == 1
    contexts, attention = [], []
    for j in range(len(pairs)):
        ps = range(prem_at[j], prem_at[j + 1])
        scores = graph.outer_sum(
            hyp_terms if one else graph.slice_rows(hyp_terms, hyp_at[j], hyp_at[j + 1]),
            prem_terms if one else graph.take_col(prem_terms, ps), bias)
        fwd = final = forward_attention(graph, scores)
        rev = None
        if use_dual:
            rev = reverse_attention(graph, scores)
            final = dual_attention(graph, fwd, rev)
        contexts.append(attended_context(graph, final, prem if one else graph.take_col(prem, ps)))
        attention.append((fwd, rev, final))

    relations = _relation_walk(graph, hyp_schedule, hyp, graph.stack_columns(contexts),
                               params.relation).h
    roots = graph.gather(relations, np.arange(relations.shape[0])[:, None],
                         [[n - 1 for n in hyp_at[1:]]])
    return BatchPass(classify(graph, roots, params.classifier), attention, relations)


@dataclass
class Prediction:
    """Plain-array view of one evaluated pair."""

    label: str
    distribution: np.ndarray        # (3,) in LABELS order
    forward_attention: np.ndarray   # (|hyp|, |prem|)
    reverse_attention: np.ndarray   # (|prem|, |hyp|)
    final_attention: np.ndarray     # (|hyp|, |prem|)
    relations: np.ndarray           # (|hyp|, r)


def _plain_row_softmax(m):
    e = np.exp(m - m.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _forests(pairs):
    """The premises' and the hypotheses' forests of a list of pairs, for
    :func:`_wavefront`: each a :func:`~treentail.trees.forest_schedule`
    and its leaf tokens in leaf-level order."""
    return [(forest_schedule(trees), [token for tree in trees for token in tree.leaves()])
            for trees in zip(*pairs)]


def _wavefront(premises, hypotheses, vocab, table, params, use_dual, dtype, attention,
               stand_in=None):
    """The tape-free forward of a list of pairs, given as their two forests
    (:func:`_forests`), which a caller may reuse while the trees stay put.

    All premises walk as one forest and all hypotheses as another
    (:func:`~treentail.composer.walk_values`), so a height of either walk
    is one cell call over every pair; each pair's attention and contexts
    are small products on column slices of the two state matrices; the
    relation walk covers every hypothesis as one forest; and one product
    classifies every root.
    Returns the ``(len(pairs), 3)`` distributions and, with
    ``attention``, each pair's ``(forward, reverse, final, relations)``;
    without ``use_dual`` the reverse view is the column softmax of the
    forward scores.  A batch of one lays out every operand as the tape
    does and so equals :func:`run_forward` bit for bit.  A wider batch
    groups more columns per product, and BLAS may round those products'
    last bits differently.

    ``stand_in``, a ``(parameter, stack)`` pair, evaluates a stack of
    models at once: the ``(S, *shape)`` stack replaces the parameter's
    value (one of ``params``' arrays or the trainable table), every
    array it reaches gains a leading axis of S, and the distributions
    are ``(S, len(pairs), 3)``.  Every operation reads only the last two
    axes, and the rest of the model stays 2-D and broadcasts.  In
    ``np.longdouble`` NumPy's products run no BLAS, so each entry of the
    stack is the forward of its model alone, bit for bit.
    """
    k = params.meaning.k_out
    swapped, stack = stand_in or (None, None)

    def cast(parameter):
        return np.asarray(stack if parameter is swapped else parameter.value, dtype)

    prem_schedule, prem_words = premises
    hyp_schedule, hyp_words = hypotheses
    mw, mb = cast(params.meaning.block.weight), cast(params.meaning.block.bias)
    rows = stack if swapped is table.trainable else None

    def encode(schedule, words):
        x = np.asarray(lookup_rows(vocab, table, words, rows), dtype)
        return walk_values(schedule, x, mw, mb, k)[0]

    prem = encode(prem_schedule, prem_words)
    hyp = encode(hyp_schedule, hyp_words)

    sw, sb = cast(params.scorer.weight), cast(params.scorer.bias)
    hyp_scores = (sw[..., :k] @ hyp).mT
    prem_scores = sw[..., k:] @ prem
    prem_at, hyp_at = prem_schedule[0], hyp_schedule[0]
    contexts, views = [], []
    for j in range(len(prem_at) - 1):
        ps = slice(prem_at[j], prem_at[j + 1])
        scores = hyp_scores[..., hyp_at[j]:hyp_at[j + 1], :] + prem_scores[..., ps] + sb
        forward = final = _plain_row_softmax(scores)
        reverse = _plain_row_softmax(scores.mT) if use_dual or attention else None
        if use_dual:
            raw = forward * reverse.mT + dtype(RENORM_FLOOR)
            final = raw / raw.sum(axis=-1, keepdims=True)
        contexts.append(prem[..., ps] @ final.mT)
        if attention:
            views.append((forward, reverse, final))
    context = contexts[0] if len(contexts) == 1 else np.concatenate(contexts, axis=-1)
    if hyp.ndim < context.ndim:  # the stack entered after the meaning walks
        hyp = np.broadcast_to(hyp, context.shape[:-2] + hyp.shape[-2:])

    rw, rb = cast(params.relation.block.weight), cast(params.relation.block.bias)
    relations = walk_values(hyp_schedule, np.concatenate((hyp, context), axis=-2), rw, rb,
                            params.relation.k_out)[0]

    cw, cb = cast(params.classifier.weight), cast(params.classifier.bias)
    roots = relations.take([n - 1 for n in hyp_at[1:]], axis=-1)
    dists = _plain_row_softmax(np.ascontiguousarray(np.tanh(cw @ roots + cb).mT))
    if not np.isfinite(dists).all():
        raise NonFiniteValue("non-finite class distribution")
    views = [v + (relations[..., hyp_at[j]:hyp_at[j + 1]].mT,) for j, v in enumerate(views)]
    return dists, views


def predict(premise, hypothesis, vocab, table, params, use_dual=False,
            dtype=np.float64):
    """Evaluate one pair without a tape or dropout; returns a Prediction.

    The batch of one of the one inference forward (:func:`plain_distributions`
    runs it on many pairs), behind ``predict`` and ``inspect``.  Its
    outputs equal :func:`run_forward`'s bit for bit.  Without
    ``use_dual``, where the tape records no reverse view, the reverse
    attention is the column softmax of the forward scores.  Equal
    probabilities resolve to the earliest label in LABELS order.  Raises
    :class:`NonFiniteValue` if the distribution is not finite.
    """
    dists, views = _wavefront(*_forests([(premise, hypothesis)]), vocab, table, params,
                              use_dual, dtype, attention=True)
    forward, reverse, final, relations = views[0]
    return Prediction(
        label=LABELS[int(np.argmax(dists[0]))],
        distribution=dists[0],
        forward_attention=forward,
        reverse_attention=reverse,
        final_attention=final,
        relations=relations,
    )


def plain_distributions(pairs, vocab, table, params, use_dual=False,
                        dtype=np.float64):
    """The ``(len(pairs), 3)`` class distributions of a non-empty list of
    ``(premise, hypothesis)`` pairs, walked together level by level.
    Row ``j`` is pair ``j``'s :func:`plain_forward` to the last bit or
    so, and exactly that for a list of one.  Raises
    :class:`NonFiniteValue` if any distribution is not finite."""
    return _wavefront(*_forests(pairs), vocab, table, params, use_dual, dtype,
                      attention=False)[0]


def plain_forward(premise, hypothesis, vocab, table, params,
                  use_dual=False, dtype=np.float64):
    """The ``(3,)`` class distribution of :func:`predict`.  The
    finite-difference audit runs it in extended precision, keeping the
    oracle's own rounding error far below the tolerance it enforces."""
    return plain_distributions([(premise, hypothesis)], vocab, table, params,
                               use_dual=use_dual, dtype=dtype)[0]


def plain_loss(premise, hypothesis, vocab, table, params, gold,
               use_dual=False, dtype=np.float64):
    """Cross-entropy of one pair via :func:`plain_forward`, as a numpy
    scalar in ``dtype`` (see :func:`cross_entropy`)."""
    return cross_entropy(plain_forward(premise, hypothesis, vocab, table, params,
                                       use_dual=use_dual, dtype=dtype), gold)


def node_confidences(relations, classifier):
    """Class distribution at every hypothesis node, one row per node."""
    w, b = classifier.weight.value, classifier.bias.value
    return _plain_row_softmax(np.tanh(relations @ w.T + b.T))
