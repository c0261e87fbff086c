"""kgvec: joint word + knowledge-graph embeddings with asymmetric
rank-bounded relation projections.

The library trains skip-gram word vectors and translation-style knowledge
models over a shared embedding space, where each relation projects head and
tail entities through separate low-rank linear maps before measuring the
translation residual.  See README.md for the full tour.
"""

from .corpus import (
    PhraseIndex,
    Vocabulary,
    build_negative_table,
    build_vocabulary,
    load_phrase_lexicon,
    merge_phrases,
    tokenize,
)
from .evaluation import (
    AnalogyQuestion,
    EvalReport,
    SimilarityPair,
    analogy_3cosadd,
    load_analogy_questions,
    load_similarity_pairs,
    make_analogy_predictor,
    rank_sweep,
    run_analogy_suite,
    run_similarity_suite,
    spearman_rho,
)
from .kg import (
    MappingStats,
    TripleSet,
    compute_mapping_stats,
    corrupt_triple,
    load_triples,
)
from .model import (
    EmbeddingStore,
    ModelConfig,
    knowledge_loss_grad,
    score_triple,
    skipgram_ns_loss_grad,
)
from .projection import (
    LowRankProjection,
    init_projection,
    transh_as_lowrank,
)
from .trainer import (
    ModelState,
    TrainConfig,
    TrainReport,
    load_checkpoint,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AnalogyQuestion",
    "EmbeddingStore",
    "EvalReport",
    "LowRankProjection",
    "MappingStats",
    "ModelConfig",
    "ModelState",
    "PhraseIndex",
    "SimilarityPair",
    "TrainConfig",
    "TrainReport",
    "TripleSet",
    "Vocabulary",
    "analogy_3cosadd",
    "build_negative_table",
    "build_vocabulary",
    "compute_mapping_stats",
    "corrupt_triple",
    "init_projection",
    "knowledge_loss_grad",
    "load_analogy_questions",
    "load_checkpoint",
    "load_phrase_lexicon",
    "load_similarity_pairs",
    "load_triples",
    "make_analogy_predictor",
    "merge_phrases",
    "rank_sweep",
    "run_analogy_suite",
    "run_similarity_suite",
    "save_checkpoint",
    "score_triple",
    "skipgram_ns_loss_grad",
    "spearman_rho",
    "tokenize",
    "train",
    "transh_as_lowrank",
]
