"""Binarized constituency trees and their s-expression text format.

A tree is either a single token or ``( TREE TREE )``.  Parsing assigns
dense post-order node ids, so children always carry smaller ids than
their parent and the root is the last id.  That ordering is what lets
the composer walk ``range(node_count)`` and trust that both children of
every internal node are already computed.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass


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


@dataclass(frozen=True)
class BinaryTree:
    """Immutable binary tree over post-order node ids.

    ``tokens[i]`` is the leaf token at node ``i`` (``None`` for internal
    nodes); ``lefts[i]``/``rights[i]`` are child ids (``-1`` for leaves).
    """

    tokens: tuple
    lefts: tuple
    rights: tuple

    def __post_init__(self):
        for i in range(len(self.tokens)):
            if self.is_leaf(i):
                continue
            if not (0 <= self.lefts[i] < i and 0 <= self.rights[i] < i):
                raise NonBinaryNode(f"node {i} has children out of post-order")

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
        return [self.tokens[i] for i in post_order(self) if self.is_leaf(i)]


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


def serialize(tree):
    """Render the canonical s-expression: single spaces, spaced parens.

    ``parse_tree(serialize(t)) == t`` for every valid tree.
    """

    def render(i):
        if tree.is_leaf(i):
            return tree.tokens[i]
        return "( " + render(tree.lefts[i]) + " " + render(tree.rights[i]) + " )"

    return render(tree.root)


def post_order(tree):
    """Node ids in left-right-parent order, computed by explicit DFS.

    Because parsing assigns post-order ids, the result for a parsed tree
    is always ``[0, 1, ..., node_count - 1]``; walking the structure
    instead of returning ``range`` keeps this an independent check of
    that invariant.
    """
    order = []
    stack = [(tree.root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded or tree.is_leaf(node):
            order.append(node)
        else:
            stack.append((node, True))
            stack.append((tree.rights[node], False))
            stack.append((tree.lefts[node], False))
    return order


def node_phrases(tree):
    """Surface phrase covered by each node, as one string per node id."""
    phrases = [None] * tree.node_count
    for i in post_order(tree):
        if tree.is_leaf(i):
            phrases[i] = tree.tokens[i]
        else:
            phrases[i] = phrases[tree.lefts[i]] + " " + phrases[tree.rights[i]]
    return phrases
