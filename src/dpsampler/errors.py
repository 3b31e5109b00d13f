"""Semantic exception hierarchy shared by all dpsampler modules."""


class DPSamplerError(Exception):
    """Base error for the dpsampler package."""


class ValidationError(DPSamplerError, ValueError):
    """Inputs violate a documented contract."""


# --- distribution / dataset validation ---------------------------------------

class NegativeMass(ValidationError):
    """A probability vector contains a negative entry."""


class NotNormalized(ValidationError):
    """A probability vector does not sum to 1 within tolerance."""


class DomainTooSmall(ValidationError):
    """Finite domain size k must be at least 2."""


class DomainMismatch(ValidationError):
    """Two finite distributions live on different domains."""


class DimensionMismatch(ValidationError):
    """Vectors or datasets have inconsistent dimensions."""


class EmptyDataset(ValidationError):
    """A dataset must contain at least one record."""


class OutOfDomain(ValidationError):
    """A domain element is outside [1..k]."""


# --- parameter validation -----------------------------------------------------

class InvalidAlpha(ValidationError):
    """Error tolerance alpha outside (0, 1)."""


class NonIntegerShape(ValidationError):
    """A Gamma shape is not a positive integer, the only shapes the ELap norm law takes."""


class BadSplit(ValidationError):
    """Row count is not divisible by 3 for the n1 = n2 = n/3 bounded-covariance split."""


# --- sampler preconditions ----------------------------------------------------

class InsufficientData(DPSamplerError):
    """Too few records for a release; the message names the least n, or m and n."""


class PrecisionLimit(DPSamplerError):
    """Tolerance alpha/m fell below its floor, or a needed n, radius or rate is beyond the float range."""


# --- orchestration -----------------------------------------------------------

class ConfigInvalid(DPSamplerError):
    """Experiment configuration is malformed or incomplete."""
