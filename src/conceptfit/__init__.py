"""Joint factor analysis of graded responses and question text.

Estimates sparse nonnegative question-concept associations, per-question
difficulties, learner concept-knowledge profiles, and per-concept keyword
profiles by minimizing a combined Bernoulli/Poisson negative log-likelihood
with block coordinate descent and FISTA subsolvers.
"""

from .errors import (
    ConceptfitError,
    DataFormatError,
    DimensionMismatchError,
    DivergenceError,
    EmptyVocabularyError,
    InfeasibleSplitError,
    NonFiniteGradientError,
    ValidationError,
)
from .estimator import FitConfig, fit, fit_responses_only, initialize
from .evaluation import (
    AssociationGraph,
    ConceptSummary,
    CvScore,
    HoldoutSplit,
    association_graph,
    cross_validate,
    holdout_split,
    mean_predicted_likelihood,
    top_keywords,
)
from .io import (
    LoadedResponses,
    ModelArchive,
    export_graph,
    load_archive,
    load_corpus,
    load_responses,
    save_archive,
    simulate,
)
from .model import (
    FactorState,
    FitReport,
    GradedResponseSet,
    HyperParams,
    WordCountMatrix,
    bernoulli_nll,
    inverse_logit,
    objective,
    poisson_nll,
    predict_response_prob,
)
from .solvers import (
    FistaConfig,
    Subproblem,
    SubproblemResult,
    c_column_subproblem,
    fista_minimize,
    grad_c_column,
    grad_t_column,
    grad_w_row,
    prox_nonneg,
    prox_w,
    t_column_subproblem,
    w_row_subproblem,
)
from .text import (
    Corpus,
    StopWordList,
    build_vocabulary,
    count_matrix,
    load_stop_words,
    tokenize,
)

__version__ = "0.1.0"
