"""Exception types raised across the toolkit.

Point operations raise; grid/curve operations mark the offending cell
undefined instead so that one bad cell never aborts a whole sweep.
"""
from __future__ import annotations


class AuditError(Exception):
    """Base class for all toolkit-specific errors."""


class EmptyLabeledPool(AuditError):
    """No labeled, non-missing candidates in the window being summarized."""


class EmptyLabeledPrefix(AuditError):
    """Top-k prefix contains no labeled candidates, so shares are undefined."""


class CutoffOutOfRange(AuditError):
    """Requested cutoff k falls outside 1..len(entries)."""


class ZeroTargetProportion(AuditError):
    """Skew needs a strictly positive target proportion for the group."""


class MissingBaselineEntry(AuditError):
    """The external baseline has no target proportions for a query."""


class DegenerateProportion(AuditError):
    """Integrality correction needs a target strictly inside (0, 1)."""


class MalformedRow(AuditError):
    """A tabular input row failed to parse; message carries the line number."""


class UnknownLabel(AuditError):
    """A group label is not part of the scheme in use."""


class DayMissing(AuditError):
    """A requested day has no snapshot in the series."""


class EmptyPool(AuditError):
    """Re-ranking needs at least one candidate."""


class LabelWithoutProportion(AuditError):
    """A pooled candidate carries a label with no target proportion."""


class RankDeficientDesign(AuditError):
    """Fixed-effect design matrix does not have full column rank."""


class TooFewGroups(AuditError):
    """Random-intercept fit needs at least two grouping-factor levels."""


class NonConvergence(AuditError):
    """Variance-ratio search exhausted its bracket without settling."""


class FitRefused(AuditError, ValueError):
    """Too few observations to fit, or a Wald test of a non-converged fit."""


class CoefficientMissing(AuditError):
    """Requested coefficient is not part of the fitted design."""


class InvalidConfig(AuditError):
    """Simulation or runtime configuration violates its constraints."""


class InconsistentGrid(AuditError):
    """Heatmap export needs every row to share one cutoff grid."""
