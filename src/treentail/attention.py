"""Soft alignment between hypothesis and premise tree nodes.

Scores are produced for every node pair (leaves and internal phrases
alike) by one shared affine scorer over the concatenated node vectors,
hypothesis side first.  Normalizing scores per hypothesis row gives the
forward alignment; normalizing per premise column (and transposing)
gives the reverse alignment; each is one row softmax.  The dual
alignment multiplies the two views elementwise and renormalizes each
row, which suppresses premise nodes the reverse view does not support;
``row_normalize`` adds :data:`RENORM_FLOOR` to every entry before it
divides.  The scorer and the contexts read each tree's ``(k, n)`` h
matrix node (:func:`~treentail.composer.walk_tree`), and the attended
contexts form one ``(k, |hyp|)`` matrix node, a column per hypothesis
node.
"""

from __future__ import annotations

import numpy as np

from .autodiff import ShapeMismatch
from .composer import as_matrix

# Additive floor that row_normalize applies to dual rows, so a row whose
# forward and reverse masses have disjoint support still normalizes.
RENORM_FLOOR = 1e-12


class NotDistribution(ValueError):
    pass


class NotOnePerRow(ValueError):
    pass


def score_matrix(graph, hyp_states, prem_states, scorer):
    """Pairwise scores: entry ``(i, j)`` is ``scorer([h_i; h_j])`` for
    hypothesis node ``i`` and premise node ``j``, from the two trees'
    ``(k, n)`` h matrices (column ``i`` is node ``i``).

    Computed by splitting the scorer weight across the two halves of its
    input, which matches the per-pair affine definition up to float
    rounding while touching each node vector once: a column of
    hypothesis terms plus a row of premise terms (:func:`score_terms`)
    plus the bias.
    """
    hyp_part, prem_part = score_terms(graph, hyp_states, prem_states, scorer)
    return graph.outer_sum(hyp_part, prem_part, graph.parameter(scorer.bias))


def score_terms(graph, hyp_states, prem_states, scorer):
    """The scorer's hypothesis terms as an ``(n_hyp, 1)`` column and its
    premise terms as a ``(1, n_prem)`` row, one per column of each h
    matrix, which may hold a whole forest's nodes."""
    if scorer.out_dim != 1 or scorer.in_dim % 2 != 0:
        raise ShapeMismatch("scorer must map 2k inputs to one score")
    k = scorer.in_dim // 2
    hyp, prem = as_matrix(graph, hyp_states), as_matrix(graph, prem_states)
    for states in (hyp, prem):
        if states.shape[0] != k:
            raise ShapeMismatch(f"node vectors have {states.shape[0]} rows, expected {k}")

    weight = graph.parameter(scorer.weight)
    w_hyp = graph.take_col(weight, range(k))
    w_prem = graph.take_col(weight, range(k, 2 * k))
    return graph.transpose(graph.matmul(w_hyp, hyp)), graph.matmul(w_prem, prem)


def forward_attention(graph, scores):
    """Row-stochastic alignment of each hypothesis node over premise nodes."""
    return graph.softmax(scores, axis=1)


def reverse_attention(graph, scores):
    """Column-wise normalization of the same scores, transposed so that
    row ``j`` is premise node ``j``'s alignment over hypothesis nodes."""
    return graph.softmax(graph.transpose(scores), axis=1)


def dual_attention(graph, forward, reverse):
    """Elementwise product of the two alignment views, renormalized.

    Entry ``(i, j)`` multiplies how much hypothesis node ``i`` attends
    to premise node ``j`` by how much ``j`` attends back to ``i``; then
    one ``row_normalize`` adds :data:`RENORM_FLOOR` to every entry and
    renormalizes each row, so rows stay stochastic.  A one-hot
    forward row backed by a consistent reverse column is a fixed point.
    """
    if forward.shape != tuple(reversed(reverse.shape)):
        raise ShapeMismatch(
            f"forward {forward.shape} and reverse {reverse.shape} disagree"
        )
    raw = graph.hadamard(forward, graph.transpose(reverse))
    return graph.row_normalize(raw, RENORM_FLOOR)


def attended_context(graph, attention, prem_states):
    """Expected premise vector under each hypothesis row's alignment.

    Takes the premise's ``(k, n)`` h matrix and returns the
    ``(k, |hyp|)`` context matrix node whose column ``i`` is
    ``sum_j attention[i, j] * h_j``.
    """
    prem = as_matrix(graph, prem_states)
    if attention.shape[1] != prem.shape[1]:
        raise ShapeMismatch("attention columns do not match premise nodes")
    return graph.matmul(prem, graph.transpose(attention))


def mix_alignments(alignments, probs):
    """Expectation of hard alignment matrices under a distribution.

    Each alignment must be binary with exactly one 1 per row; ``probs``
    must be a distribution over the list.  This is the enumeration
    semantics the soft attention matrix stands in for, and it exists as
    an oracle: the model itself never enumerates alignments.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or probs.size != len(alignments):
        raise NotDistribution("need one probability per alignment")
    if probs.size == 0 or probs.min() < 0 or abs(probs.sum() - 1.0) > 1e-9:
        raise NotDistribution("probabilities must be nonnegative and sum to 1")

    out = None
    shape = None
    for p, a in zip(probs, alignments):
        a = np.asarray(a, dtype=float)
        if shape is None:
            shape = a.shape
        elif a.shape != shape:
            raise NotOnePerRow("alignments have inconsistent shapes")
        if not np.isin(a, (0.0, 1.0)).all() or not (a.sum(axis=1) == 1.0).all():
            raise NotOnePerRow("alignment is not binary with one 1 per row")
        out = p * a if out is None else out + p * a
    return out


def row_entropy(matrix):
    """Shannon entropy (nats) of each row of a stochastic matrix."""
    m = np.asarray(matrix, dtype=float)
    safe = np.where(m > 0, m, 1.0)
    return -(m * np.log(safe)).sum(axis=1)
