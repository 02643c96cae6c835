"""Numerical tolerances used across the toolkit, collected in one record."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Tolerance knobs for validation and certification.

    construction: elementwise and aggregate checks when building state objects.
    spectral: Hermiticity checks on raw matrices fed to eigensolvers.
    psd_drift: how far below zero an eigenvalue may drift and still count as zero.
    certificate: default slack for optimality certificates.
    channel: slack for channel outputs (incoherence, fixed points, PPT).
    kraus: channel completeness, of a Kraus operator set or of its closed form.
    clip_warn: eigenvalue clipping beyond this emits NumericalDriftWarning.
    """

    construction: float = 1e-12
    spectral: float = 1e-10
    psd_drift: float = 1e-10
    certificate: float = 1e-10
    channel: float = 1e-10
    kraus: float = 1e-12
    clip_warn: float = 1e-9


DEFAULT_TOLERANCES = Tolerances()
