"""The density propagation as literal 2x2 matrix products.

`propagator_coefficients`, `evolve_density` and `check_block` are the
former bodies of `dqdsim.state`, kept as the reference for its closed-form
entry algebra: sigma matrices, sigma_y transposes, numpy traces, LAPACK
determinants and inverses (`np.linalg.det`, `np.linalg.inv`, not the
closed forms of `dqdsim.model`) and a LAPACK `eigvalsh` for the block
check. `evolve_density` returns the raw blocks (rho1, rho2) so that a test
can compare them before any check; `density_blocks` applies the former
checks to such a pair. `PropagatorCoefficients` holds J1, J2 and J3 as
entry tuples, so the reference converts them with `entries2`/`matrix2` at
its boundary and multiplies 2x2 arrays inside.

`steady_state_density` (the blocks that V^s fixes, the reference for
`steady_state_eof`) and `double_occupied` are the former `dqdsim.state`
constructors, kept for the tests that start from them.
"""

import numpy as np

from dqdsim.model import (
    IDENTITY2,
    InvariantViolation,
    SolverError,
    as_mat2,
    dagger,
    det_e,
    entries2,
    matrix2,
    trace_e,
)
from dqdsim.state import (
    BLOCK_HERMITICITY_TOL,
    POSITIVITY_TOL,
    TRACE_TOL,
    DensityBlocks,
    PropagatorCoefficients,
)

SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


def propagator_coefficients(u, v) -> PropagatorCoefficients:
    """W = (I - V)^-1, J1 = W U, J2 = W - I, J3 = U^dag W U - I, A = 1/det W."""
    u = as_mat2(u)
    v = as_mat2(v)
    one_minus_v = IDENTITY2 - v
    det_w_inv = np.linalg.det(one_minus_v)
    if abs(det_w_inv) < 1e-14:
        raise SolverError(
            "I - V is singular (occupation reached 1); coefficients undefined"
        )
    w = np.linalg.inv(one_minus_v)
    return PropagatorCoefficients(
        j1=entries2(w @ u),
        j2=entries2(w - IDENTITY2),
        j3=entries2(dagger(u) @ w @ u - IDENTITY2),
        a=complex(det_w_inv),
    )


def check_block(name, m):
    m = as_mat2(m)
    if np.max(np.abs(m - dagger(m))) > BLOCK_HERMITICITY_TOL:
        raise InvariantViolation(f"{name} block is not Hermitian")
    eigs = np.linalg.eigvalsh(0.5 * (m + dagger(m)))
    if eigs.min() < -POSITIVITY_TOL:
        raise InvariantViolation(
            f"{name} block has negative eigenvalue {eigs.min():.3e}"
        )
    return m


def density_blocks(rho1, rho2):
    """(rho1, rho2) after the former DensityBlocks checks."""
    rho1 = check_block("rho1", rho1)
    rho2 = check_block("rho2", rho2)
    total = float(np.trace(rho1).real + np.trace(rho2).real)
    if abs(total - 1.0) > TRACE_TOL:
        raise InvariantViolation(f"total trace {total} != 1")
    return rho1, rho2


def evolve_density(rho0, coeffs):
    """Raw (rho1, rho2) of the propagated blocks, unchecked.

    Literal evaluation of the propagating-function result; no algebraic
    shortcuts, since the mixture of determinants, traces and sigma_y
    transposes is where sign errors hide. The identity coefficients
    (I, 0, 0, 1) return the input unchanged.
    """
    j1, j2, j3 = (matrix2(coeffs.j1), matrix2(coeffs.j2), matrix2(coeffs.j3))
    a = coeffs.a
    r1, r2 = rho0.rho1, rho0.rho2

    det_j1 = np.linalg.det(j1)
    det_j2 = np.linalg.det(j2)
    det_j3 = np.linalg.det(j3)
    p_vac = r1[0, 0]
    p_dbl = r1[1, 1]
    tr_r2_j3 = np.trace(r2 @ j3)

    j1_tilde = np.diag([1.0, det_j1])
    sy_j2t_sy = SIGMA_Y @ j2.T @ SIGMA_Y
    sy_j3t_sy = SIGMA_Y @ j3.T @ SIGMA_Y

    rho1_f = a * (
        j1_tilde
        @ (r1 + (p_dbl * det_j3 - tr_r2_j3) * (SIGMA_PLUS @ SIGMA_MINUS))
        @ dagger(j1_tilde)
    )
    scalar = (
        np.trace(sy_j2t_sy @ j1 @ r2 @ dagger(j1))
        - p_dbl * np.trace(sy_j2t_sy @ j1 @ sy_j3t_sy @ dagger(j1))
        + (p_vac - tr_r2_j3 + p_dbl * det_j3) * det_j2
    )
    rho1_f = rho1_f + a * scalar * (SIGMA_MINUS @ SIGMA_PLUS)

    rho2_f = a * (j1 @ (r2 - p_dbl * sy_j3t_sy) @ dagger(j1)) + a * (
        p_vac + p_dbl * det_j3 - tr_r2_j3
    ) * j2

    return rho1_f, rho2_f


def steady_state_density(v_s) -> DensityBlocks:
    """Thermalized blocks determined by the stationary fluctuation matrix.

    rho1 = diag(1 + det V - tr V, det V), rho2 = V - (det V) I; the
    vacuum/double coherence is exactly zero in the steady state.
    """
    v = entries2(as_mat2(v_s))
    det_v = det_e(v).real
    tr_v = trace_e(v).real
    rho1 = (complex(1.0 + det_v - tr_v), 0j, 0j, complex(det_v))
    rho2 = (v[0] - det_v, v[1], v[2], v[3] - det_v)
    return DensityBlocks._of_entries(rho1, rho2)


def double_occupied() -> DensityBlocks:
    """Both modes occupied: rho1 = diag(0, 1), rho2 = 0."""
    return DensityBlocks(np.diag([0.0, 1.0]), np.zeros((2, 2)))
