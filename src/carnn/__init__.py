"""Context-aware sequential recommendation.

A recurrent next-item recommender whose per-step input and transition
matrices are selected by discrete contexts (calendar situation of the
event, binned time gap to the previous event), trained with a pairwise
ranking objective by backpropagation through time, plus data preparation,
ranking-metric evaluation, and a reproducible experiment CLI.
"""

from .context import ContextScheme, annotate_sequences, input_context, transition_bin
from .data import (Interaction, InteractionLog, SequenceSet, SplitSet, UserSequence,
                   build_sequences, full_train_split, parse_interactions, split_sequences)
from .errors import (CarnnError, CompatibilityError, ConfigError, DataError,
                     FormatError, InputOutputError, NumericalError)
from .estimator import CARNNRecommender
from .evaluate import (MetricsReport, RankRecord, evaluate, generate_synthetic,
                       pop_baseline, rank_target)
from .model import (ModelConfig, ModelParams, init_params, load_params, save_params,
                    score_all, states_at, top_n)
from .training import (EpochStats, GradientBuffer, TrainConfig, backprop_sequence,
                       gradient_check, sgd_step, train)

__version__ = "0.1.0"

__all__ = [
    "CARNNRecommender",
    "CarnnError", "CompatibilityError", "ConfigError", "DataError",
    "FormatError", "InputOutputError", "NumericalError",
    "ContextScheme", "annotate_sequences", "input_context", "transition_bin",
    "Interaction", "InteractionLog", "SequenceSet", "SplitSet", "UserSequence",
    "build_sequences", "full_train_split", "parse_interactions", "split_sequences",
    "ModelConfig", "ModelParams", "init_params", "load_params", "save_params",
    "score_all", "states_at", "top_n",
    "EpochStats", "GradientBuffer", "TrainConfig", "backprop_sequence",
    "gradient_check", "sgd_step", "train",
    "MetricsReport", "RankRecord", "evaluate", "generate_synthetic",
    "pop_baseline", "rank_target",
    "__version__",
]
