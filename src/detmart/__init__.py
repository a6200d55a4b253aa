"""Determinantal martingales for noncolliding particle systems.

Evaluate spatio-temporal correlation kernels, run Monte Carlo estimators
of the determinantal-martingale and complex-process representations, and
verify the structural identities against exact enumeration, quadrature,
and brute-force oracles.
"""

from .configurations import (
    PointConfiguration,
    besselzero_config,
    det_phi_identity_check,
    lattice_config,
    phi_coeffs,
    phi_simple,
    phi_twotime,
    vandermonde,
)
from .errors import CapacityError, DetmartError, DomainError, NumericError
from .kernels import (
    CorrelationKernel,
    SpaceTimeQuery,
    correlation,
    gue_density,
    kernel_eval,
    kernel_bessel,
    kernel_extended_hermite,
    kernel_extended_laguerre,
    kernel_sine,
)
from .martingales import (
    martingale_transform,
    martingale_transform_twotime,
    poly_martingale,
)
from .oconnell import LiftParams, oconnell_theta_cpr, oconnell_theta_dmr, phi_lift
from .processes import ProcessKind, bes, besq, bm, rw
from .simulate import (
    Estimate,
    PathEnsemble,
    brute_force_rw,
    cpr_expectation,
    dmr_expectation,
    sample_free,
    sample_noncolliding,
    sample_noncolliding_rw,
)

__version__ = "0.1.0"
