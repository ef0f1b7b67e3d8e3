"""Class-based n-gram language modeling by greedy exchange clustering.

The toolkit learns a category mapping for words and a state mapping for
contexts by hill-climbing a log-likelihood criterion, optionally moving
whole groups of contexts along a suffix hierarchy, and evaluates the
resulting models (plus backoff and interpolated baselines) by perplexity.
"""

from clusterlm.corpus import (
    Vocabulary,
    FeatureMapper,
    build_vocabulary,
    encode_corpus,
    load_feature_map,
    save_feature_map,
    identity_mapper,
)
from clusterlm.events import (
    ContextSpec,
    Slot,
    EventTable,
    extract_events,
    save_counts,
    load_counts,
)
from clusterlm.ctxtree import ContextTree, Level, build_suffix_tree
from clusterlm.cluster import (
    ClusterParams,
    Clustering,
    MoveDelta,
    delta_move_word,
    delta_move_context_group,
    init_clustering,
    run_flat,
    run_tree,
    export_categories,
    save_clustering,
    load_clustering,
)
from clusterlm.models import (
    ClassLM,
    BackoffModel,
    InterpolatedModel,
    train_backoff,
    ngram_counts,
    save_backoff,
    load_backoff,
    save_classlm,
    load_classlm,
    save_interpolated,
    load_interpolated,
    load_model,
)
from clusterlm.evaluate import (
    EvalReport,
    perplexity,
    format_report,
    report_lines,
    em_mixture_weights,
    tune_weights_em,
)

__version__ = "0.1.0"

__all__ = [
    "Vocabulary",
    "FeatureMapper",
    "build_vocabulary",
    "encode_corpus",
    "load_feature_map",
    "save_feature_map",
    "identity_mapper",
    "ContextSpec",
    "Slot",
    "EventTable",
    "extract_events",
    "save_counts",
    "load_counts",
    "ContextTree",
    "Level",
    "build_suffix_tree",
    "ClusterParams",
    "Clustering",
    "MoveDelta",
    "delta_move_word",
    "delta_move_context_group",
    "init_clustering",
    "run_flat",
    "run_tree",
    "export_categories",
    "save_clustering",
    "load_clustering",
    "ClassLM",
    "BackoffModel",
    "InterpolatedModel",
    "train_backoff",
    "ngram_counts",
    "save_backoff",
    "load_backoff",
    "save_classlm",
    "load_classlm",
    "save_interpolated",
    "load_interpolated",
    "load_model",
    "EvalReport",
    "perplexity",
    "format_report",
    "report_lines",
    "em_mixture_weights",
    "tune_weights_em",
]
