"""kwsense: keyword disambiguation with embedding-based semantic relatedness.

The toolkit measures word and sense relatedness on the angular distance of
embedding vectors, selects the context words most related to a target
keyword, and ranks the keyword's candidate senses with a three-step scoring
algorithm (context relatedness, description rescoring, frequency
re-ranking). An evaluation harness scores word-pair correlation benchmarks
and tagged disambiguation corpora.
"""

from .compiled import rel_sense_word, rel_senses
from .disambig import (
    ActiveContext,
    AlgoParams,
    ContextConfig,
    DisambiguationResult,
    DocVecStore,
    SenseScore,
    Strategy,
    build_sif_store,
    disambiguate,
    load_docvec_store,
    norm_freq,
    select_active_context,
    step1_base_scores,
    step2_rescore,
    step3_frequency,
)
from .embeddings import (
    EmbeddingModel,
    Vector,
    VectorTable,
    load_binary_model,
    load_text_model,
    save_text_model,
)
from .errors import ConfigError, KwsenseError, ParseError, UnmeasurableError
from .evaluation import (
    WordPair,
    WordPairDataset,
    WordPairEvalResult,
    WsdCorpus,
    WsdItem,
    WsdRecord,
    WsdReport,
    WsdTarget,
    eval_wordpairs,
    eval_wsd,
    load_wordpair_dataset,
    load_wsd_corpus,
    spearman,
)
from .lexicon import (
    ContextRef,
    Lexicon,
    Sense,
    ValidationReport,
    load_lexicon,
    save_lexicon,
    validate,
)
from .relatedness import (
    DEFAULT_WEIGHTS,
    RelWeights,
    SifConfig,
    angular_relatedness,
    load_word_frequencies,
    rel_words,
)
from .stopwords import STOPWORDS_VERSION, default_stopwords, load_stopwords

__version__ = "0.1.0"

__all__ = [
    "ActiveContext",
    "AlgoParams",
    "ConfigError",
    "ContextConfig",
    "ContextRef",
    "DEFAULT_WEIGHTS",
    "DisambiguationResult",
    "DocVecStore",
    "EmbeddingModel",
    "KwsenseError",
    "Lexicon",
    "ParseError",
    "RelWeights",
    "Sense",
    "SenseScore",
    "SifConfig",
    "STOPWORDS_VERSION",
    "Strategy",
    "UnmeasurableError",
    "ValidationReport",
    "Vector",
    "VectorTable",
    "WordPair",
    "WordPairDataset",
    "WordPairEvalResult",
    "WsdCorpus",
    "WsdItem",
    "WsdRecord",
    "WsdReport",
    "WsdTarget",
    "angular_relatedness",
    "build_sif_store",
    "default_stopwords",
    "disambiguate",
    "eval_wordpairs",
    "eval_wsd",
    "load_binary_model",
    "load_docvec_store",
    "load_lexicon",
    "load_stopwords",
    "load_text_model",
    "load_word_frequencies",
    "load_wordpair_dataset",
    "load_wsd_corpus",
    "norm_freq",
    "rel_sense_word",
    "rel_senses",
    "rel_words",
    "save_lexicon",
    "save_text_model",
    "select_active_context",
    "spearman",
    "step1_base_scores",
    "step2_rescore",
    "step3_frequency",
    "validate",
]
