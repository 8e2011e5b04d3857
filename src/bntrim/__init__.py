"""bntrim: trim features from a discrete Bayesian network classifier under
a cost budget while keeping its decisions as close as possible to the
original, by re-tuning the decision threshold.

The core pipeline: build or learn a network (:mod:`bntrim.netio`,
:mod:`bntrim.evalharness`), measure how well a feature subset can mimic
the full classifier (:mod:`bntrim.agreement`, the grid route), and
search the subsets under a budget (:mod:`bntrim.trimsearch`).  The scalar
route that checks the grid route is :mod:`bntrim.inference`, and the
brute-force oracles on it live in :mod:`bntrim.baselines`; the ``bntrim``
command in :mod:`bntrim.cli`.
"""

from .agreement import (
    InstanceTable,
    MaaResult,
    ThresholdInterval,
    build_instance_table,
    compute_maa,
    eca,
    maa,
    mpa,
    sdp,
)
from .baselines import (
    SelectionReport,
    eca_bruteforce,
    ig_report,
    ig_select,
    info_gain,
    maa_bruteforce,
)
from .bnmodel import (
    BayesianNetwork,
    Classifier,
    CostModel,
    Cpt,
    Variable,
    check_classifier,
    check_network,
    cond_independent_given_class,
    validate_network,
)
from .errors import (
    BntrimError,
    EnumerationLimitError,
    ModelError,
    ParseError,
    UsageError,
    ZeroEvidenceError,
)
from .evalharness import (
    EvalConfig,
    ScatterRow,
    cv_accuracy,
    empirical_agreement,
    learn_nb,
    sample_rows,
    scatter,
    synthesize_dataset,
    write_scatter_csv,
)
from .inference import (
    assignment_from_labels,
    classify,
    esdp_two_threshold,
    marginal,
    posterior_class,
)
from .netio import (
    Dataset,
    parse_dataset,
    parse_network,
    serialize_dataset,
    serialize_network,
)
from .trimsearch import (
    SearchStats,
    TraceEvent,
    TrimResult,
    eca_trim,
    enumerate_feasible,
    exhaustive_trim,
)

__version__ = "0.1.0"

__all__ = [
    "BayesianNetwork",
    "BntrimError",
    "Classifier",
    "CostModel",
    "Cpt",
    "Dataset",
    "EnumerationLimitError",
    "EvalConfig",
    "InstanceTable",
    "MaaResult",
    "ModelError",
    "ParseError",
    "ScatterRow",
    "SearchStats",
    "SelectionReport",
    "ThresholdInterval",
    "TraceEvent",
    "TrimResult",
    "UsageError",
    "Variable",
    "ZeroEvidenceError",
    "assignment_from_labels",
    "build_instance_table",
    "check_classifier",
    "check_network",
    "classify",
    "compute_maa",
    "cond_independent_given_class",
    "cv_accuracy",
    "eca",
    "eca_bruteforce",
    "eca_trim",
    "empirical_agreement",
    "enumerate_feasible",
    "esdp_two_threshold",
    "exhaustive_trim",
    "ig_report",
    "ig_select",
    "info_gain",
    "learn_nb",
    "maa",
    "maa_bruteforce",
    "marginal",
    "mpa",
    "parse_dataset",
    "parse_network",
    "posterior_class",
    "sample_rows",
    "scatter",
    "sdp",
    "serialize_dataset",
    "serialize_network",
    "synthesize_dataset",
    "validate_network",
    "write_scatter_csv",
]
