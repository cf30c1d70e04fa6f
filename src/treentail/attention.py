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
matrix (:func:`~treentail.composer.walk_tree`), and the attended
contexts form one ``(k, |hyp|)`` matrix, a column per hypothesis node.

The per-pair functions below build one pair's attention from tape ops.
Training and inference run a whole batch instead: the pairs' nodes lie
side by side in two forest matrices, and :func:`batch_attention` groups
the pairs by their node counts and computes each group as one stacked
block, without a tape.  :func:`attend` records that as one tape op,
whose backward hands each parent one gradient for the batch.
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


def row_softmax(m):
    """Max-subtracted softmax along the last axis of an array, with the
    arithmetic of the tape's ``softmax``."""
    e = np.exp(m - m.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_vjp(y, g):
    """The tape's ``softmax`` backward rule along the last axis."""
    return y * (g - (g * y).sum(axis=-1, keepdims=True))


def _shape_groups(offsets):
    """A batch's pairs grouped by their exact ``(|hyp|, |prem|)`` node
    counts, in order of first appearance, with both forests' node ids in
    group order: pair after pair, group after group.  Returns the groups,
    each ``(pairs, H, P, hyp_run, prem_run)`` where the runs are the
    slices of those ids that hold the group's nodes, then the hypothesis
    and the premise ids, both None where group order is forest order."""
    hyp_at, prem_at = offsets
    by_shape = {}
    for j in range(len(hyp_at) - 1):
        shape = (hyp_at[j + 1] - hyp_at[j], prem_at[j + 1] - prem_at[j])
        by_shape.setdefault(shape, []).append(j)
    groups, hs, ps = [], 0, 0
    for (h, p), pairs in by_shape.items():
        he, pe = hs + len(pairs) * h, ps + len(pairs) * p
        groups.append((pairs, h, p, slice(hs, he), slice(ps, pe)))
        hs, ps = he, pe
    order = [j for pairs in by_shape.values() for j in pairs]
    if order == sorted(order):
        return groups, None, None
    return groups, _node_ids(hyp_at, order), _node_ids(prem_at, order)


def _node_ids(at, order):
    """The node ids of a forest's pairs, pairs in ``order``, where pair
    ``j`` holds nodes ``at[j]:at[j + 1]``."""
    at = np.asarray(at)
    starts, sizes = at[order], np.diff(at)[order]
    ends = np.cumsum(sizes)
    return np.repeat(starts - ends + sizes, sizes) + np.arange(ends[-1])


def _blocks(a, run, n):
    """The columns ``run`` of ``a``, ``n`` per pair, as a view of
    ``(..., G, rows, n)`` blocks, one per pair; for one pair the
    ``(..., rows, n)`` block itself, whose ops cost what a lone pair's
    do."""
    block = a[..., run]
    if run.stop - run.start == n:
        return block
    return block.reshape(block.shape[:-1] + (-1, n)).swapaxes(-2, -3)


def _in_groups(a, ids, axis=-1):
    """``a`` with its nodes along ``axis`` in group order: the forest's
    nodes ``ids`` (:func:`_shape_groups`), or ``a`` itself for None."""
    return a if ids is None else a.take(ids, axis=axis)


def _ungroup(a, ids):
    """``a``, whose columns are the forest's nodes ``ids`` in group
    order, with its columns back in forest order."""
    if ids is None:
        return a
    out = np.empty_like(a)
    out[..., ids] = a
    return out


def batch_attention(hyp_terms, prem_terms, bias, prem, offsets, use_dual, reverse=False,
                    kept=None):
    """Every pair's attention and contexts over a batch, without a tape.

    ``hyp_terms`` is the scorer's ``(n_hyp, 1)`` column of hypothesis
    terms over the hypotheses' forest, ``prem_terms`` its ``(1, n_prem)``
    row of premise terms (:func:`score_terms`), ``bias`` its ``(1, 1)``
    bias, ``prem`` the premises' ``(k, n_prem)`` h matrix, and
    ``offsets`` the two forests' node offsets, hypotheses first: pair
    ``j``'s nodes are ``offsets[0][j]:offsets[0][j + 1]`` of the one and
    ``offsets[1][j]:offsets[1][j + 1]`` of the other, each list running
    from 0 to its forest's node count.

    Pairs with the same node counts are one group, computed as one
    stacked ``(G, H, P)`` block, without padding: scores, row softmax
    (the forward view), row softmax of the transposed scores (the
    reverse view), with ``use_dual`` their product renormalized by
    :data:`RENORM_FLOOR` as :func:`dual_attention` does, and the
    contexts.  The operands' columns are taken once, in group order
    (unless the groups keep forest order), so a group's blocks are
    views.  Each pair's entries are the per-pair
    functions' above bit for bit.  Returns the ``(k, n_hyp)`` context
    matrix in hypothesis forest order and each pair's ``(forward,
    reverse, final)`` alignments, views of the group's blocks; the
    reverse view is None unless ``use_dual`` or ``reverse``, and without
    ``use_dual`` the final view is the forward one.

    Any operand may carry a leading stack axis, one model per entry:
    only the last two axes are read, and the results gain the axis.
    ``kept``, if given, receives the groups and node ids of
    :func:`_shape_groups` and each group's ``(forward, reverse, final,
    row sums)``, which the tape's backward rule reads; the row sums are
    the dual product's, else None.
    """
    groups, hyp_ids, prem_ids = _shape_groups(offsets)
    hyp_terms = _in_groups(hyp_terms, hyp_ids, axis=-2).mT
    prem_terms = _in_groups(prem_terms, prem_ids)
    prem = _in_groups(prem, prem_ids)
    alignments = [None] * (len(offsets[0]) - 1)
    grouped = None  # the contexts, in group order
    views = []
    for pairs, h, p, hyp_run, prem_run in groups:
        lone = len(pairs) == 1
        # C order, as the per-pair sum lays it out: the row sums below
        # then add each row's entries in the same order.
        scores = np.add(_blocks(hyp_terms, hyp_run, h).mT + _blocks(prem_terms, prem_run, p),
                        bias if lone else bias[..., None, :, :], order="C")
        forward = final = row_softmax(scores)
        backward = row_softmax(scores.mT) if use_dual or reverse else None
        sums = None
        if use_dual:
            final = forward * backward.mT
            final += RENORM_FLOOR
            sums = final.sum(axis=-1, keepdims=True)
            final /= sums
        contexts = _blocks(prem, prem_run, p) @ final.mT  # (G, k, H)
        if grouped is None:
            grouped = np.empty(contexts.shape[:contexts.ndim - 3 + lone]
                               + (prem.shape[-2], hyp_terms.shape[-1]), contexts.dtype)
        _blocks(grouped, hyp_run, h)[...] = contexts
        for i, j in enumerate(pairs):
            fwd, rev, fin = (a if lone or a is None else a[..., i, :, :]
                             for a in (forward, backward, final))
            alignments[j] = (fwd, rev, fwd if final is forward else fin)
        views.append((forward, backward, final, sums))
    if kept is not None:
        kept.extend((groups, hyp_ids, prem_ids, views))
    return _ungroup(grouped, hyp_ids), alignments


def attend(graph, hyp_terms, prem_terms, bias, prem, offsets, use_dual):
    """:func:`batch_attention` of tape nodes as one op, named
    ``attention``: its value is the ``(k, n_hyp)`` context matrix and its
    parents are ``(hyp_terms, prem_terms, bias, prem)``.  Returns the
    node and each pair's ``(forward, reverse, final)`` alignment arrays
    (reverse None without ``use_dual``).

    The op keeps the groups, their node ids and each group's alignments
    (and the dual product's row sums) for its backward, and nothing
    else.  The backward goes group by
    group and hands each parent one gradient for the whole batch, with
    the arithmetic, layouts and order of the per-pair ops' backward
    rules (``outer_sum``, ``softmax``, ``hadamard``, ``row_normalize``,
    ``matmul``): the bias's gradient sums the pairs' parts last pair
    first, as a tape of per-pair ops accumulates them.
    """
    kept = []
    value, alignments = batch_attention(hyp_terms.value, prem_terms.value, bias.value,
                                        prem.value, offsets, use_dual, kept=kept)
    groups, hyp_ids, prem_ids, views = kept
    pv = prem.value

    def vjp(g):
        # every array below holds its columns in group order
        g_sorted, pv_sorted = _in_groups(g, hyp_ids), _in_groups(pv, prem_ids)
        g_hyp = np.empty((1, g.shape[1]), g.dtype)
        g_terms = np.empty((1, pv.shape[1]), g.dtype)
        g_prem = np.empty(pv.shape, g.dtype)
        g_bias = np.empty(len(alignments), g.dtype)
        for group, (forward, backward, final, sums) in zip(groups, views):
            pairs, h, p, hyp_run, prem_run = group
            g_ctx = _blocks(g_sorted, hyp_run, h)  # (G, k, H)
            _blocks(g_prem, prem_run, p)[...] = g_ctx @ final
            g_final = (_blocks(pv_sorted, prem_run, p).mT @ g_ctx).mT
            if use_dual:
                g_raw = (g_final - (g_final * final).sum(axis=-1, keepdims=True)) / sums
                # the reverse view's part arrives first, as on a per-pair tape
                g_scores = (_softmax_vjp(backward, (g_raw * forward).mT).mT
                            + _softmax_vjp(forward, g_raw * backward.mT))
            else:
                g_scores = _softmax_vjp(forward, g_final)
            _blocks(g_hyp, hyp_run, h)[...] = g_scores.sum(axis=-1, keepdims=True).mT
            _blocks(g_terms, prem_run, p)[...] = g_scores.sum(axis=-2, keepdims=True)
            g_bias[pairs] = g_scores.sum(axis=(-2, -1))
        return (_ungroup(g_hyp, hyp_ids).T, _ungroup(g_terms, prem_ids),
                np.cumsum(g_bias[::-1])[-1:].reshape(1, 1), _ungroup(g_prem, prem_ids))

    return graph.record(value, (hyp_terms, prem_terms, bias, prem), vjp, "attention"), alignments


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
