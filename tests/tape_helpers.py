"""Loss helpers for tape tests, built only from the tape's own ops."""

import numpy as np


def total(graph, node):
    """Sum of ``node``'s entries as a (1, 1) node: ``ones @ node @ ones``."""
    rows, cols = node.shape
    left = graph.matmul(graph.constant(np.ones((1, rows))), node)
    return graph.matmul(left, graph.constant(np.ones((cols, 1))))

