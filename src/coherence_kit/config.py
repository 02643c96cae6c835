"""Numerical tolerances used across the toolkit, collected in one record, and
the norm's underflow threshold."""

import math
import sys
from typing import NamedTuple


class Tolerances(NamedTuple):
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

# Below this l2 norm the squares that core._unit_amplitudes sums lose bits to underflow.
_NORM_SAFE_MIN = math.sqrt(sys.float_info.min) * 2.0**26
