"""gamiscreen: keyword-based logistic screening of app listings for gamification."""

from .errors import (
    ArityMismatchError,
    DegenerateAgreementError,
    DegenerateColumnError,
    DuplicateIdError,
    GamiscreenError,
    IncomparableModelsError,
    InputError,
    OneClassError,
    ParseError,
    SeparationError,
    SingularMatrixError,
    StatisticalError,
    TooFewRecordsError,
    UnknownStoreError,
)
from .evaluation import (
    CalibrationReport,
    KappaResult,
    ModelComparison,
    RocCurve,
    aic_compare,
    assess,
    calibration_strata,
    cohen_kappa,
    roc_auc,
)
from .logit import (
    FittedModel,
    UnivariateResult,
    fit_logistic,
    load_model,
    predict,
    pretrained_grouping,
    pretrained_model,
    save_model,
    univariate_screen,
)
from .pipeline import (
    Dataset,
    ScoreResult,
    StudyReport,
    evaluate,
    ingest,
    iter_scores,
    read_records,
    run_study,
    score_records,
    split,
)
from .textfeatures import (
    AppRecord,
    FeatureVector,
    Lexicon,
    VariableGrouping,
    default_grouping,
    default_lexicon,
    extract_features,
    tokenize,
)

__version__ = "0.1.0"
