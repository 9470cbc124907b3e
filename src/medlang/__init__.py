"""medlang: natural direct/indirect effects of a social-group signal on
conversational responses, with interpretable language aspects as mediators.

The library parses speaker-turn transcripts into advocate/justice pairs,
measures treatment, outcome, and mediators from text, fits tabulated GLM
nuisance models with cross-fitting, computes sample-average direct and
indirect effects with percentile bootstrap intervals, and validates every
estimator against exact oracles on synthetic structural-model data.
"""

from .corpus import (
    AnalysisUnit,
    Utterance,
    extract_units,
    parse_case_metadata,
    parse_transcript,
)
from .errors import ConfigError, DataError, MedlangError, NumericalError, ParseError
from .glm import (
    CrossFitPlan,
    FittedMediatorModel,
    FittedOutcomeModel,
    fit_mediator_model,
    fit_outcome_model,
    make_plan,
)
from .measure import (
    BuildResult,
    CausalRecord,
    CodedRecords,
    Domains,
    MeasurementSpec,
    build_records,
    default_hedging_lexicon,
    encode_records,
    label_interruption,
    label_treatment,
    load_lexicon,
    measure_disfluency,
    measure_hedging,
)
from .mediation import (
    EffectEstimate,
    EstimatorConfig,
    bootstrap_effects,
    estimate_all,
    fit_models,
    sample_effects,
)
from .scm import (
    MediatorLaw,
    OracleResult,
    OutcomeLaw,
    ScmSpec,
    TreatmentLaw,
    exact_effects,
    generate,
    load_fixture,
    load_scm_spec,
    monte_carlo_effects,
    violation_study,
    with_knob,
)
from .textutil import tokenize
from .topics import TopicModel, fit_topic_model, measure_topic, measure_topics

__version__ = "0.1.0"

__all__ = [
    "AnalysisUnit",
    "BuildResult",
    "CausalRecord",
    "CodedRecords",
    "ConfigError",
    "CrossFitPlan",
    "DataError",
    "Domains",
    "EffectEstimate",
    "EstimatorConfig",
    "FittedMediatorModel",
    "FittedOutcomeModel",
    "MeasurementSpec",
    "MedlangError",
    "MediatorLaw",
    "NumericalError",
    "OracleResult",
    "OutcomeLaw",
    "ParseError",
    "ScmSpec",
    "TopicModel",
    "TreatmentLaw",
    "Utterance",
    "bootstrap_effects",
    "build_records",
    "default_hedging_lexicon",
    "encode_records",
    "estimate_all",
    "exact_effects",
    "extract_units",
    "fit_mediator_model",
    "fit_models",
    "fit_outcome_model",
    "fit_topic_model",
    "generate",
    "label_interruption",
    "label_treatment",
    "load_fixture",
    "load_lexicon",
    "load_scm_spec",
    "make_plan",
    "measure_disfluency",
    "measure_hedging",
    "measure_topic",
    "measure_topics",
    "monte_carlo_effects",
    "parse_case_metadata",
    "parse_transcript",
    "sample_effects",
    "tokenize",
    "violation_study",
    "with_knob",
]
