"""Binarized constituency trees and their s-expression text format.

A tree is either a single token or ``( TREE TREE )``.  Its node ids are
the post-order (left subtree, right subtree, parent) numbering, checked
when a :class:`BinaryTree` is built, so every walk over a tree is a
sweep over ``range(node_count)`` that reaches both children of a node
before the node itself, and the root is the last id.  The Tree-LSTM
walks go a level at a time instead, over one schedule:
:func:`forest_schedule` lays trees end to end and gives each height's
node ids with their children's ids, computing every node's height in
one such sweep per tree.  The tape records a tree's whole walk over the
tree's own schedule as one op, and the tape-free forward walks a
forest's; each builds its schedule when it walks.  A tree holds its
nodes and nothing derived from them.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np


class TreeParseError(ValueError):
    """Base class for malformed tree text."""


class EmptyInput(TreeParseError):
    pass


class UnbalancedParens(TreeParseError):
    pass


class NonBinaryNode(TreeParseError):
    pass


class NestingTooDeep(TreeParseError, RecursionError):
    """Nesting deeper than the parser's recursion can follow.  Also a
    RecursionError, which is what such text raised before."""


@dataclass(frozen=True, slots=True)
class BinaryTree:
    """Immutable binary tree whose node ids are its post-order.

    ``tokens[i]`` is the leaf token at node ``i`` (``None`` for internal
    nodes); ``lefts[i]``/``rights[i]`` are child ids (``-1`` for leaves).
    Ids that are not one tree's post-order raise :class:`NonBinaryNode`:

    >>> BinaryTree(("a", "b", None), (-1, -1, 0), (-1, -1, 0))
    Traceback (most recent call last):
    treentail.trees.NonBinaryNode: node 2 (token None, children (0, 0)) breaks post-order
    """

    tokens: tuple
    lefts: tuple
    rights: tuple

    def __post_init__(self):
        n = len(self.tokens)
        if not n or len(self.lefts) != n or len(self.rights) != n:
            raise NonBinaryNode(f"tokens, lefts and rights have lengths {n}, "
                                f"{len(self.lefts)}, {len(self.rights)}")
        size = []  # size[i]: node count of the subtree rooted at i
        for i, token in enumerate(self.tokens):
            children = (self.lefts[i], self.rights[i])
            if token is not None and children == (-1, -1):
                size.append(1)
                continue
            # Post-order: right subtree just before its parent, left before that.
            right = i - 1
            left = right - size[right] if i else -1
            if token is not None or left < 0 or children != (left, right):
                raise NonBinaryNode(f"node {i} (token {token!r}, children {children}) "
                                    "breaks post-order")
            size.append(1 + size[left] + size[right])
        if size[-1] != n:
            raise NonBinaryNode(f"the root covers {size[-1]} of {n} nodes")

    @property
    def node_count(self):
        return len(self.tokens)

    @property
    def root(self):
        return len(self.tokens) - 1

    def is_leaf(self, i):
        return self.lefts[i] < 0

    def leaves(self):
        """Leaf tokens in left-to-right surface order."""
        return [token for token in self.tokens if token is not None]


def forest_schedule(trees):
    """The level schedule of ``trees`` laid end to end.

    Node ``i`` of ``trees[t]`` is node ``offsets[t] + i`` of the forest,
    and a node's height is 0 for a leaf, else one more than the higher of
    its children's.  Returns ``(offsets, levels)``: ``offsets`` is a list
    of one start per tree and then the forest's node count; ``levels[h]``
    is ``(ids, lefts, rights)``: the forest ids of height ``h``, tree by
    tree and in id order, and their children's ids (None on the leaf
    level).  A level of one node gives one-node slices, every other level
    integer arrays, so a column gather can be a view where it selects one
    column.

    >>> offsets, levels = forest_schedule([parse_tree("( a b )"), parse_tree("c")])
    >>> offsets, levels[0][0].tolist(), levels[1]
    ([0, 3, 4], [0, 1, 3], (slice(2, 3, None), slice(0, 1, None), slice(1, 2, None)))
    """
    offsets, ids, lefts, rights = [0], [[]], [None], [None]  # one entry per height
    for tree in trees:
        start, heights = offsets[-1], []
        for i, left in enumerate(tree.lefts):
            if left < 0:
                heights.append(0)
                ids[0].append(start + i)
                continue
            right = tree.rights[i]
            hl, hr = heights[left], heights[right]
            h = (hl if hl > hr else hr) + 1  # not max(): this loop is per node
            heights.append(h)
            if h == len(ids):
                ids.append([]), lefts.append([]), rights.append([])
            ids[h].append(start + i)
            lefts[h].append(start + left)
            rights[h].append(start + right)
        offsets.append(start + len(heights))
    levels = []
    for h, columns in enumerate(zip(ids, lefts, rights)):
        pack = np.array if len(columns[0]) > 1 else lambda one: slice(one[0], one[0] + 1)
        levels.append(tuple(map(pack, columns)) if h else (pack(columns[0]), None, None))
    return offsets, tuple(levels)


def _tokenize(text):
    # Parens may be flush against tokens, so make them standalone first.
    return text.replace("(", " ( ").replace(")", " ) ").split()


def parse_tree(text):
    """Parse s-expression text into a :class:`BinaryTree`.

    >>> t = parse_tree("( ( the cat ) sleeps )")
    >>> t.node_count, t.root
    (5, 4)

    Raises :class:`EmptyInput` for blank text, :class:`UnbalancedParens`
    for paren mismatches or trailing content, :class:`NonBinaryNode`
    for any internal node without exactly two constituents, and
    :class:`NestingTooDeep` for nesting past the interpreter's recursion
    limit (the parser recurses once per level).
    """
    toks = _tokenize(text)
    if not toks:
        raise EmptyInput("no tokens in input")

    tokens, lefts, rights = [], [], []
    pos = 0

    def parse_node():
        nonlocal pos
        if pos >= len(toks):
            raise UnbalancedParens("unexpected end of input")
        tok = toks[pos]
        if tok == ")":
            raise UnbalancedParens("unexpected ')'")
        if tok != "(":
            pos += 1
            tokens.append(tok)
            lefts.append(-1)
            rights.append(-1)
            return len(tokens) - 1
        pos += 1
        children = []
        while pos < len(toks) and toks[pos] != ")":
            children.append(parse_node())
        if pos >= len(toks):
            raise UnbalancedParens("missing ')'")
        pos += 1
        if len(children) != 2:
            raise NonBinaryNode(
                f"internal node with {len(children)} constituents"
            )
        tokens.append(None)
        lefts.append(children[0])
        rights.append(children[1])
        return len(tokens) - 1

    try:
        parse_node()
    except RecursionError:
        raise NestingTooDeep(
            f"tree nests deeper than the parser's limit of about "
            f"{sys.getrecursionlimit()} levels") from None
    if pos != len(toks):
        raise UnbalancedParens("trailing content after complete tree")
    return BinaryTree(tuple(tokens), tuple(lefts), tuple(rights))


def _spans(tree, open_, close):
    """Each node's leaves joined by spaces, internal nodes in open_/close."""
    spans = []
    for i, token in enumerate(tree.tokens):
        if token is None:
            token = open_ + spans[tree.lefts[i]] + " " + spans[tree.rights[i]] + close
        spans.append(token)
    return spans


def serialize(tree):
    """Render the canonical s-expression: single spaces, spaced parens.

    ``parse_tree(serialize(t)) == t`` for every valid tree.
    """
    return _spans(tree, "( ", " )")[tree.root]


def node_phrases(tree):
    """Surface phrase covered by each node, as one string per node id."""
    return _spans(tree, "", "")
