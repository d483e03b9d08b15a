"""disc-forge: corpus engineering for discussion-augmented bug-fixing data.

The pipeline mines issue-tracker discussions, links them to bug-fix
examples, filters and orders them by time, and renders the model-input
context representations used for training and evaluation.
"""

from .contexts import (
    ContextSkip,
    MissingAuxInput,
    build_context,
    enumerate_segment_contexts,
    extract_attended_segments,
    layout_whole_discussion,
)
from .evaluate import (
    best_exact_match,
    corpus_exact_match,
    dataset_stats,
    exact_match,
    paired_bootstrap,
)
from .linking import link_examples, order_discussions, temporal_filter
from .records import (
    CONTEXT_KINDS,
    SEPARATOR,
    SPLITS,
    AttentionTrace,
    BugFixExample,
    Candidate,
    CommitLinkEvent,
    ContextSpec,
    Description,
    Discussion,
    EvalReport,
    RecordError,
    Segment,
    Utterance,
    normalize_timestamp,
)
from .storage import (
    iter_dataset,
    iter_discussions,
    iter_links,
    load_candidates,
    load_dataset,
    load_descriptions,
    load_discussions,
    load_links,
    load_traces,
    save_candidates,
    save_dataset,
    save_discussions,
    save_links,
)
from .textproc import (
    KERNEL_BACKEND,
    code_tokenize,
    process_discussion_text,
    refine_token,
    subtokenize,
    truncate_from_end,
)

__version__ = "0.1.0"

__all__ = [
    "AttentionTrace",
    "BugFixExample",
    "Candidate",
    "CommitLinkEvent",
    "CONTEXT_KINDS",
    "ContextSkip",
    "ContextSpec",
    "Description",
    "Discussion",
    "EvalReport",
    "KERNEL_BACKEND",
    "MissingAuxInput",
    "RecordError",
    "Segment",
    "SEPARATOR",
    "SPLITS",
    "Utterance",
    "best_exact_match",
    "build_context",
    "code_tokenize",
    "corpus_exact_match",
    "dataset_stats",
    "enumerate_segment_contexts",
    "exact_match",
    "extract_attended_segments",
    "iter_dataset",
    "iter_discussions",
    "iter_links",
    "layout_whole_discussion",
    "link_examples",
    "load_candidates",
    "load_dataset",
    "load_descriptions",
    "load_discussions",
    "load_links",
    "load_traces",
    "normalize_timestamp",
    "order_discussions",
    "paired_bootstrap",
    "process_discussion_text",
    "refine_token",
    "save_candidates",
    "save_dataset",
    "save_discussions",
    "save_links",
    "subtokenize",
    "temporal_filter",
    "truncate_from_end",
    "__version__",
]
