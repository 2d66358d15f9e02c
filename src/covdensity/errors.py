"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Input has the wrong shape (non-square, dimension mismatch, ragged rows)."""


class SymmetryError(ValueError):
    """Matrix is not symmetric within tolerance."""


class InsufficientDataError(ValueError):
    """Too few observations for the requested estimate."""


class DegenerateCovarianceError(ValueError):
    """Covariance matrix is degenerate for the requested operation (e.g. zero trace)."""


class BetaRangeError(ValueError):
    """|beta| * ||C|| exceeds the overflow guard for matrix exponentials."""


class InfeasibleTargetError(ValueError):
    """Target mean lies outside the open spectral hull; no finite beta matches it."""


class GraphGenerationError(RuntimeError):
    """Random graph generation failed (e.g. no connected graph within the retry budget)."""


class TrainingError(RuntimeError):
    """Training produced a non-finite loss or gradients."""


class ConfigError(ValueError):
    """Configuration file failed schema validation."""
