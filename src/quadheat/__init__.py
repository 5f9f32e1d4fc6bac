"""Heat kernels on quadric CR geometries.

Closed-form evaluation of the transform-side fundamental solution and the
weighted two-point heat kernel, together with the independent numerical
machinery that verifies them: Hermite/Mehler series, brute-force Fourier
inversion, finite-difference operator residuals, semigroup composition, and
initial-condition recovery.
"""

from .boxop import (
    GridFunction,
    apply_box_ll_lambda,
    heat_apply,
    initial_condition_check,
    pde_residual,
    pde_residual_richardson,
    sample_rho_hat,
    semigroup_check,
)
from .errors import NumericsError
from .forms import FormIndex, epsilon
from .hermite import (
    UTildeParams,
    mehler_closed,
    mehler_factor,
    u_tilde_closed,
    u_tilde_series,
)
from .kernel import (
    KernelQuery,
    inversion_budget,
    inversion_quadspec,
    inversion_rate,
    log_mu_sinh_factor,
    log_rho_hat,
    mu_coth,
    rho_hat,
    rho_hat_adapted,
    rho_hat_eta,
    rho_via_inversion,
    weighted_heat_kernel,
    weighted_heat_kernel_batch,
)
from .quadrature import GridSpec, aliasing_bound, integrate_with_estimate, tail_bound
from .quadric import QuadricForm, heisenberg, phi_lambda_matrix
from .spectral import SpectralData, decompose_form, eigendecompose

__version__ = "0.1.0"
