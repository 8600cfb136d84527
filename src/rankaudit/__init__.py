"""rankaudit: exposure audits for ranked candidate lists.

Measures how group representation in top-k prefixes compares to target
proportions (deviation, skew, MinSkew, integrality-corrected skew), tracks
day-to-day membership churn per group, applies and verifies the DetGreedy
constrained re-ranker, and tests audit hypotheses with random-intercept
mixed models.  A seeded simulator supplies ground truth for all of it.

Every submodule but ``cli`` is registered when the package is imported and
executed on its first attribute access (``importlib.util.LazyLoader``), so
a CLI run executes only the modules its subcommand uses.  The package's
exported names are read from their modules when asked for (PEP 562).

The file code is split by role, so that a run compiles only what it runs:
``dataio`` holds the writers, format constants and helpers, ``loader`` the
snapshot loader and its report, and ``readers`` the table readers and the
heatmap export.  ``dataio.X`` still resolves for the public names of the
other two, in the same way.
"""
from __future__ import annotations

import importlib.util
import sys

# The names each submodule exports from the package.  ``cli`` is left
# out: ``python -m rankaudit.cli`` executes it as ``__main__``, and runpy
# would execute a registered copy a second time.
_EXPORTS = {
    "churn": "ChurnCell anchored_pairs churn_grid churn_rate consecutive_pairs mean_churn_by_gap",
    "dataio": "",
    "detgreedy": "RerankResult ScoredCandidate check_feasibility detgreedy_rerank",
    "encoders": "",
    "errors": "AuditError CoefficientMissing CutoffOutOfRange DayMissing DegenerateProportion EmptyLabeledPool "
              "EmptyLabeledPrefix EmptyPool FitRefused InconsistentGrid InvalidConfig LabelWithoutProportion "
              "MalformedRow MissingBaselineEntry NonConvergence RankDeficientDesign TooFewGroups UnknownLabel "
              "ZeroTargetProportion",
    "exposure": "MetricCurve TopKCounts best_attainable_skew corrected_skew corrected_skew_curve deviation_at_k "
                "deviation_curve min_skew_at_k minskew_curve page_cutoffs skew_at_k skew_curve topk_counts",
    "loader": "",
    "mixedlm": "LongObservation MixedModelFit ProtocolRow WaldTest churn_protocol fit_random_intercept "
               "minskew_protocol wald_test",
    "model": "EXTERNAL_BASELINE OBSERVED_POOL CandidateRecord GroupProportions GroupScheme QuerySeries "
             "RankingSnapshot observed_proportions",
    "names": "CoverageReport InferenceResult NameFrequencyTable infer_label label_dataset load_name_table "
             "save_name_table table_from_rows",
    "readers": "",
    "simulate": "QueryTruth ScoreModel SimConfig SimResult generate inject_topk_bias",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}

for _name in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _lazy = globals()[_name] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    # Marks the module unexecuted: its first attribute access executes it.
    _spec.loader.exec_module(_lazy)
del _name, _spec, _lazy

__version__ = "0.1.0"

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _OWNER:
        return getattr(globals()[_OWNER[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
