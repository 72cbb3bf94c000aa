"""Certified lower bounds on linear-classifier accuracy via single-axis
threshold scans, exact and Monte Carlo, over very wide feature embeddings."""

from types import ModuleType as _ModuleType

from .axiscore import (
    AxisResult,
    FeatureMatrix,
    LabeledDataset,
    Orientation,
    ScannedFeatures,
    ThresholdClassifier,
    as_linear_classifier,
    axis_accuracy,
    classifier_accuracy,
    linear_predict,
    r_min_deterministic,
)
from .datagen import (
    DATASET_KINDS,
    DatasetSpec,
    StandardizeRecord,
    dataset_from_csv,
    dataset_to_csv,
    gen_circles,
    gen_linear_separable,
    gen_multi_cluster,
    generate,
    spec_from_json,
    spec_to_json,
    standardize,
    stratified_split,
)
from .featmap import (
    EncodingCircuitSpec,
    LazyProxyFeatures,
    PauliFeatures,
    PauliString,
    ProjectionSpec,
    encode_state,
    feature_matrix_from_csv,
    feature_matrix_to_csv,
    load_feature_matrix,
    pauli_expectation,
    pauli_feature_matrix,
    pauli_string,
    projection_block,
    save_feature_matrix,
)
from .harness import (
    CSV_HEADER,
    ExperimentConfig,
    ExperimentReport,
    default_datasets,
    derive_seed,
    emit_report,
    parse_config,
    reports_equivalent,
    run_experiment,
)
from .sampling import (
    CoverageQuery,
    EstimateResult,
    EstimatorMethod,
    EstimatorSettings,
    PilotStats,
    StopReason,
    SurvivalFunction,
    adaptive_estimate,
    conservative_estimate,
    coverage_probability_bound,
    coverage_probability_exact,
    deterministic_estimate,
    pilot_estimate,
    sample_axes,
    sample_size,
    survival_function,
)
from .svmref import (
    Gram,
    SvmModel,
    decision_function,
    model_from_json,
    model_to_json,
    svm_predict,
    svm_train,
)

__version__ = "0.1.0"

# every public binding above but the submodules the imports load
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
