"""Tree-structured attention and recursive entailment composition."""

from .attention import (
    attended_context,
    dual_attention,
    forward_attention,
    mix_alignments,
    reverse_attention,
    score_matrix,
)
from .autodiff import AffineMap, Graph, Parameter, backward, grad_check
from .composer import LstmParameters, NodeState, dropout, encode_tree, lstm_cell
from .data import ExamplePair, generate_toy, load_snli
from .embeddings import (
    EmbeddingTable,
    Vocabulary,
    empty_vocabulary,
    load_pretrained,
    lookup,
    register_oov,
)
from .entailment import (
    LABELS,
    ModelParameters,
    classify,
    compose_relations,
    cross_entropy,
    predict,
)
from .trainer import (
    TrainConfig,
    adam_step,
    evaluate,
    init_parameters,
    load_checkpoint,
    parameter_count,
    save_checkpoint,
    train,
)
from .trees import BinaryTree, parse_tree, post_order, serialize

__all__ = [
    "AffineMap",
    "BinaryTree",
    "EmbeddingTable",
    "ExamplePair",
    "Graph",
    "LABELS",
    "LstmParameters",
    "ModelParameters",
    "NodeState",
    "Parameter",
    "TrainConfig",
    "Vocabulary",
    "adam_step",
    "attended_context",
    "backward",
    "classify",
    "compose_relations",
    "cross_entropy",
    "dropout",
    "dual_attention",
    "empty_vocabulary",
    "encode_tree",
    "evaluate",
    "forward_attention",
    "generate_toy",
    "grad_check",
    "init_parameters",
    "load_checkpoint",
    "load_pretrained",
    "load_snli",
    "lookup",
    "lstm_cell",
    "mix_alignments",
    "parameter_count",
    "parse_tree",
    "post_order",
    "predict",
    "register_oov",
    "reverse_attention",
    "save_checkpoint",
    "score_matrix",
    "serialize",
    "train",
]
