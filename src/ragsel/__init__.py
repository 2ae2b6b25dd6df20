"""RAG pipeline with set-wise passage selection and evaluation tooling."""

from .corpus import CorpusError, Passage, PassageStore, QuestionRecord, load_corpus, load_questions
from .distill import DistillError, LabelingStats, run_labeling
from .gateway import (
    ApiError,
    HttpChatBackend,
    HttpEmbedBackend,
    TranscriptChatBackend,
    TranscriptEmbedBackend,
    TranscriptMissError,
    TransportError,
    Usage,
)
from .metrics import (
    MetricReport,
    MetricsConfig,
    MetricsError,
    evaluate_traces,
    normalize_answer,
    qa_scores,
    token_f1,
)
from .pipeline import (
    PipelineConfig,
    PromptStyle,
    QueryTrace,
    run_benchmark,
    run_query,
)
from .retrieval import (
    AnalyzerConfig,
    Bm25Retriever,
    DenseRetriever,
    RetrievalError,
    build_index,
    search,
)
from .selection import (
    SelectionError,
    SelectionOutcome,
    Strategy,
    parse_selection,
    select,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyzerConfig",
    "ApiError",
    "Bm25Retriever",
    "CorpusError",
    "DenseRetriever",
    "DistillError",
    "HttpChatBackend",
    "HttpEmbedBackend",
    "LabelingStats",
    "MetricReport",
    "MetricsConfig",
    "MetricsError",
    "Passage",
    "PassageStore",
    "PipelineConfig",
    "PromptStyle",
    "QueryTrace",
    "QuestionRecord",
    "RetrievalError",
    "SelectionError",
    "SelectionOutcome",
    "Strategy",
    "TranscriptChatBackend",
    "TranscriptEmbedBackend",
    "TranscriptMissError",
    "TransportError",
    "Usage",
    "build_index",
    "evaluate_traces",
    "load_corpus",
    "load_questions",
    "normalize_answer",
    "parse_selection",
    "qa_scores",
    "run_benchmark",
    "run_labeling",
    "run_query",
    "search",
    "select",
    "token_f1",
    "__version__",
]
