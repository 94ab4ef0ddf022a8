"""panelforest: panel econometrics and random-forest importance analysis.

Fits static panel regressions (pooled, fixed, random effects), dynamic
one-step System GMM, and panel-adapted regression forests on the same
entity-by-year data, then ranks and significance-tests predictor
importance with sequential permutation methods, emitting side-by-side
comparison tables and figures.
"""

from .dataset import (
    CorrelationMatrix,
    IntegrityError,
    OutlierRule,
    PanelDataset,
    SchemaError,
    add_lags,
    correlation_matrix,
    describe,
    from_records,
    load_csv,
    log_transform,
    remove_outliers,
)
from .forest import (
    Forest,
    ForestConfig,
    ForestMetrics,
    fit_forest,
    forest_metrics,
    mdi_importance,
    oob_score,
    predict,
    r2_score,
)
from .gmm import GmmFit, GmmSpec, fit_system_gmm
from .linear import (
    HausmanResult,
    LinearFit,
    ModelSpec,
    WaldResult,
    fit,
    hausman,
    robust_covariance,
    t_tests,
    wald_joint,
)
from .report import (
    ModelBlock,
    emit_importance_figure,
    emit_tables,
    from_forest,
    from_gmm,
    from_linear,
)
from .vimp import (
    PermImportanceResult,
    SeqTestConfig,
    SeqTestDecision,
    permutation_importance,
    rfvimptest,
    rfvimptest_all,
    rfvimptest_many,
    significance_codes,
)

__version__ = "0.1.0"
