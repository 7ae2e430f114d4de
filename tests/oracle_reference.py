"""The discretized-bath oracle by dense diagonalization of the star Hamiltonian.

`batched_exact_greens` is the reference for `dqdsim.oracle.exact_greens`,
which expands the phases in Chebyshev polynomials of time and energy and
applies h only through its star structure: here h is built as a dense
matrix, and every phase e^{-i lambda t} is taken exactly at every grid
time. One complex `eigh` of h, then (n+1) batched (2 x D) @ (D x D)
products for V. It holds every (n+1, 2, D) intermediate at once, so it is
for small and mid-size checks.

`localized_eigenstates` reads the discretized bound states off the same
eigendecomposition, the reference for `dqdsim.boundstate`'s roots.

`cos_chebyshev_rows` is the oracle's time rows T_r(x) as it formed them
before the three-term recurrence: cos(r arccos x), one cosine per entry.
"""

import numpy as np

from dqdsim.greens import GreensSolution
from dqdsim.model import ConfigError, build_hamiltonian


def hamiltonian(bath):
    """Full one-particle matrix: dots block, bath diagonal, star couplings."""
    k = bath.modes_per_lead
    dim = 2 + 2 * k
    h = np.zeros((dim, dim), dtype=complex)
    h[:2, :2] = build_hamiltonian(bath.config.system)
    for lead in range(2):
        rows = slice(2 + lead * k, 2 + (lead + 1) * k)
        h[rows, rows] = np.diag(bath.energies[lead])
        h[lead, rows] = bath.couplings[lead]
        h[rows, lead] = bath.couplings[lead]
    return h


def eigh(bath):
    """Eigenpairs of the full Hamiltonian, in real arithmetic when it is real."""
    h = hamiltonian(bath)
    if not np.any(h.imag):
        h = h.real
    return np.linalg.eigh(h)


def localized_eigenstates(bath, weight_threshold=0.5):
    """Eigenpairs of the full Hamiltonian concentrated on the dot modes.

    Returns (energy, dot_weight) for every eigenvector whose probability
    weight on the two dot components exceeds the threshold; these are the
    discretized bound states.
    """
    if not 0.0 < weight_threshold < 1.0:
        raise ConfigError(
            f"weight_threshold must lie in (0, 1), got {weight_threshold}"
        )
    evals, q = eigh(bath)
    weights = np.abs(q[0, :]) ** 2 + np.abs(q[1, :]) ** 2
    picks = weights > weight_threshold
    return [
        (float(e), float(w)) for e, w in zip(evals[picks], weights[picks])
    ]


def batched_exact_greens(bath, grid):
    evals, q = np.linalg.eigh(hamiltonian(bath))
    q_dots = q[:2, :]  # (2, D)
    phases = np.exp(-1j * np.outer(grid.times, evals))  # (n+1, D)
    u = np.einsum("ad,td,bd->tab", q_dots, phases, np.conj(q_dots))
    u[0] = np.eye(2)  # exact; Q Q^dag carries rounding noise

    d_b = bath.bath_occupation_diagonal()
    w_mat = (np.conj(q.T) * d_b[None, :]) @ q  # Q^dag D Q, (D, D)
    x = q_dots[None, :, :] * phases[:, None, :]  # (n+1, 2, D)
    v = x @ w_mat @ np.conj(np.transpose(x, (0, 2, 1)))
    v = 0.5 * (v + np.conj(np.transpose(v, (0, 2, 1))))
    v[0] = 0.0
    return GreensSolution(grid, u, v)


def cos_chebyshev_rows(x, terms):
    """T_r(x) = cos(r arccos x) for r < terms, as a (terms, len(x)) array."""
    return np.cos(np.outer(np.arange(terms), np.arccos(x)))
