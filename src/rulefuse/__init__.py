"""Decision-rule toolkit for combining per-modality probability maps.

Models Boolean combining rules over three modality predictions (T2W, DWI_hb,
ADC), fits linear-mixture and logistic-stacking surrogates to them, samples
and searches rule spaces, applies rules to voxel volumes, and evaluates the
resulting segmentations at voxel and lesion level.
"""

from .combine import (
    binarize,
    combine_linear,
    combine_stacking,
    combine_vote,
    eval_loss,
    linear_map,
)
from .discovery import (
    AvailabilityTable,
    CaseRecord,
    EvalConfig,
    GridSearchResult,
    MCResult,
    RuleEvaluation,
    RuleSampler,
    assign_splits,
    availability_analysis,
    evaluate_rule,
    grid_search_linear,
    grid_search_stacking,
    monte_carlo_uncertainty,
    split_dataset,
)
from .errors import (
    AlignmentError,
    DataError,
    DivergenceError,
    PackingError,
    RuleFuseError,
    VolumeFormatError,
)
from .fitting import (
    FitReport,
    LinearRule,
    StackingRule,
    fit_linear,
    fit_stacking,
    odds_ratios,
    predict_decisions,
    t_statistics,
)
from .metrics import (
    MetricsConfig,
    MetricsReport,
    connected_components,
    dice,
    evaluate,
    hd95,
    lesion_precision_pred,
    lesion_recall_gt,
)
from .phantoms import PhantomSpec, generate_case, generate_cases, generate_dataset
from .rules import (
    ConditionMatrix,
    DecisionVector,
    PIRADS_RULE_NUMBERS,
    Zone,
    canonical_condition_matrix,
    decision_from_number,
    pirads_decisions,
    rule_number,
)
from .sampling import (
    SampledRule,
    SampledRuleSet,
    rejection_sample_stacking,
    sample_dirichlet,
    simplex_grid,
)
from .volio import load_manifest, load_nifti1, load_volume, save_volume, write_report
from .volumes import LabelVolume, LesionSet, Modality, ProbabilityVolume, validate_aligned

__version__ = "0.1.0"
