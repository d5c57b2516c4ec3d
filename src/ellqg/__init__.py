"""Numerics for the computable level-0 layer of the elliptic quantum group
of type A: elliptic special functions, the dynamical R-matrix, elliptic
weight functions and stable envelopes, the Gelfand-Tsetlin action, and q-KZ
integrand kernels, each backed by numerical identity checks."""

from .ellfn import (ModularParams, bracket_derivative_at_zero, ell_gamma,
                    jacobi_bracket, jacobi_brackets, qpoch, theta)
from .errors import (DomainError, EllqgError, FloatRangeError, ParameterError,
                     PoleError, ResourceCapError, ShapeError, SingularityError)
from .gtrep import (CurrentTerm, TensorState, e_on_gt, exchange_check, f_on_gt,
                    gauge_constants, gt_vector, gt_vectors, phi_on_gt)
from .qkz import (IntegrandSpec, e_factor, integrand, nome_params, phi_kernel,
                  phi_trig, torus_quadrature)
from .rmat import DynRMatrix, check_dybe, check_inversion, embedded_rbar, rbar, rbars
from .tensorspace import (Composition, DynamicalParams, EvaluationPoints,
                          PartitionIndex, enumerate_partitions, leq, weight_of)
from .weightfn import (TVariables, WeightFunctionEval, diagonal_value,
                       modified_w, specialize, specialize_all, specialize_points, stab_matrix,
                       stable_envelope_restriction, transition_residuals, w_tilde)

__version__ = "0.1.0"
