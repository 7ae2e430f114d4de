"""Adaptive-quadrature reference for the steady fluctuation matrix.

This is the frequency integral that dqdsim.greens evaluates in closed form,
taken numerically instead: V^s = int S(w) J(w) nbar(w) S(w)^dag dw / (2 pi)
with the resolvent S(w), for example sum_j Z_j / (w - r_j). It serves every
spectral kind that _Lead.density covers without a hard cutoff (Lorentzian and
wide band). Each scipy quad call meets its default epsabs of 1.5e-8, so the
reference is good to about that absolute accuracy.

For the Lorentzian kind there is also a 50-digit reference: the pole
expansion from mpmath's eigen-decomposition of the pseudomode generator,
and V^s from it as an exact sum of digammas, both at mpmath's precision.

four_pole_steady_fluctuation is the closed form that dqdsim.greens used
before it read a Lorentzian lead as the wide band of its pseudomode: the
partial fractions of each pair's integrand over its four poles r_j,
conj(r_k), mu_l -/+ i d_l, in double precision.

weighted_pairs, pairwise_steady_fluctuation, pairwise_bm_stationary and
pairwise_wbl_fluctuation (with wbl_lead_fluctuation, its per-lead sum over
the thermal pair table) are the pseudomode form as dqdsim.greens summed it
before it took one masked Cauchy-matrix product per lead: an explicit list
of the pole pairs that carry weight, pruned pair by pair, and one weighted
2x2 term per pair.
"""

import itertools
import math

import mpmath as mp
import numpy as np
from scipy.integrate import quad

from dqdsim.greens import (
    EIGENVALUE_CEIL,
    EIGENVALUE_FLOOR,
    _modes,
)
from dqdsim.model import (
    InvariantViolation,
    ModelConfig,
    SolverError,
    SpectralKind,
    build_hamiltonian,
    dagger,
    hermitian_part,
)
from dqdsim.spectral import (
    _Lead,
    _digamma,
    _near_rows,
    _thermal_pair_table,
    fermi_occupation,
)

_TWO_PI = 2.0 * math.pi


def quad_steady_fluctuation(config, resolvent, poles) -> np.ndarray:
    """V^s by adaptive quadrature of the resolvent S(w) = resolvent(w).

    The real line is cut at the chemical potentials and, around every pole p
    of S, at Re p -/+ 4^n |Im p| out to the thermal span, so each panel is
    no wider than the feature next to it; quad integrates every panel on its
    own with an equal share of the default epsabs. A single quad call with
    the pole shadows as its only breakpoints passed its own error test on a
    pole of width 0.006 at the end of an 800-wide panel (k_T = 27, d = 0.36)
    while that panel's integral was off by 2.5e-6.
    """
    # diagonal J(w) nbar(w) per lead
    def weight(w):
        out = np.empty(2)
        for i, res in enumerate(config.reservoirs):
            out[i] = _Lead(res, config.spectral_kind).density(w) * fermi_occupation(
                w, res.mu, res.k_t
            )
        return out

    def component(w, row, col, part):
        s = resolvent(w)
        jw = weight(w)
        val = (s[row, 0] * jw[0] * np.conj(s[col, 0])) + (
            s[row, 1] * jw[1] * np.conj(s[col, 1])
        )
        val /= _TWO_PI
        return val.real if part == 0 else val.imag

    span = 30.0 * max(
        1.0,
        config.left.bandwidth,
        config.right.bandwidth,
        config.left.k_t,
        config.right.k_t,
    )
    pts = {config.left.mu, config.right.mu}
    for p in np.asarray(poles, dtype=complex):
        pts.add(p.real)
        step = max(abs(p.imag), 1e-6)  # real poles here carry no weight
        while step < span:
            pts.update((p.real - step, p.real + step))
            step *= 4.0
    edges = [-np.inf, *sorted(pts), np.inf]
    share = 1.49e-8 / (len(edges) - 1)

    def integrate(row, col, part):
        return sum(
            quad(component, a, b, args=(row, col, part), epsabs=share, limit=200)[0]
            for a, b in zip(edges[:-1], edges[1:])
        )

    v = np.empty((2, 2), dtype=complex)
    v[0, 0] = integrate(0, 0, 0)
    v[1, 1] = integrate(1, 1, 0)
    v[0, 1] = integrate(0, 1, 0) + 1j * integrate(0, 1, 1)
    v[1, 0] = np.conj(v[0, 1])
    return v


def quad_steady_state_fluctuation(expansion, config) -> np.ndarray:
    """V^s with S(w) = sum_j Z_j / (w - r_j) from a pole expansion."""
    poles = np.array(expansion.poles)
    residues = np.stack(expansion.residues)

    def s_mat(w):
        return np.sum(residues / (w - poles)[:, None, None], axis=0)

    return quad_steady_fluctuation(config, s_mat, poles)


def mp_pole_expansion(config):
    """Poles and 2x2 residues of U(t) at mpmath's working precision.

    The eigenpairs of the pseudomode generator [[M, C], [C, diag(mu_l - i d_l)]]
    with C = diag(sqrt(Gamma_l d_l / 2)); the residue of pole j is
    V[:2, j] V^-1[j, :2] for the eigenvector matrix V.
    """
    gen = mp.matrix(4, 4)
    gen[0:2, 0:2] = mp.matrix(build_hamiltonian(config.system).tolist())
    for lead, res in enumerate(config.reservoirs):
        gen[lead, 2 + lead] = gen[2 + lead, lead] = mp.sqrt(
            mp.mpf(res.gamma) * res.bandwidth / 2
        )
        gen[2 + lead, 2 + lead] = mp.mpc(res.mu, -res.bandwidth)
    poles, vecs = mp.eig(gen)
    vecs_inv = mp.inverse(vecs)
    residues = [
        mp.matrix([[vecs[a, j] * vecs_inv[j, b] for b in range(2)] for a in range(2)])
        for j in range(4)
    ]
    return poles, residues


def _mp_fermi_transform(p, mu, k_t, upper):
    """T(p) with int nbar(w) / (w - p) dw = T(p) + C, C independent of p."""
    if k_t == 0:
        return mp.log(mu - p) + (1j if upper else -1j) * mp.pi
    x = (p - mu) / (2j * mp.pi * k_t)
    if upper:
        return mp.digamma(0.5 + x) + 1j * mp.pi
    return mp.digamma(0.5 - x)


def mp_steady_fluctuation(config, dps=50) -> np.ndarray:
    """Lorentzian V^s from mp_pole_expansion at dps digits, rounded to complex.

    V^s = (1/2pi) sum_l sum_jk Gamma_l Z_j P_l Z_k^dag int R_ljk(w) nbar_l(w) dw
    with R_ljk = d_l^2 / ((w - r_j)(w - conj(r_k))(w - mu_l + i d_l)(w - mu_l - i d_l)),
    integrated exactly as the sum of its partial fractions; every pole must be
    damped so that no r_j equals conj(r_k).
    """
    with mp.workdps(dps):
        poles, residues = mp_pole_expansion(config)
        v = mp.matrix(2, 2)
        for lead, res in enumerate(config.reservoirs):
            if res.gamma == 0:
                continue
            mu, d, k_t = mp.mpf(res.mu), mp.mpf(res.bandwidth), mp.mpf(res.k_t)
            # a pole without weight on the lead, such as an uncoupled lead's
            # pseudomode at mu_l - i d_l, may meet another pole of R
            live = [j for j in range(4) if residues[j][0, lead] or residues[j][1, lead]]
            q = mp.mpc(mu, -d)
            # (pole, T) of R's lower and upper poles, each T computed once
            lower = {j: (p, _mp_fermi_transform(p, mu, k_t, False))
                     for j, p in [(j, poles[j]) for j in live] + [("q", q)]}
            upper = {j: (mp.conj(p), _mp_fermi_transform(mp.conj(p), mu, k_t, True))
                     for j, (p, _) in lower.items()}
            for j, k in itertools.product(live, repeat=2):
                parts = [lower[j], lower["q"], upper[k], upper["q"]]
                integral = mp.mpf(0)
                for m, (p, t) in enumerate(parts):
                    gaps = mp.fprod(p - z for n, (z, _) in enumerate(parts) if n != m)
                    integral += d * d / gaps * t
                for a, b in itertools.product(range(2), repeat=2):
                    v[a, b] += (
                        res.gamma * residues[j][a, lead]
                        * mp.conj(residues[k][b, lead]) * integral
                    )
        v /= 2 * mp.pi
        return np.array(v.tolist(), dtype=complex)


def _fermi_transforms(groups):
    """T_l at poles q of the closed lower half plane and at conj(q), for each
    (q, reservoir) group, with int nbar_l(w) / (w - p) dw = T_l(p) + C_l and
    C_l independent of p; both concatenated over the groups.

    At k_t = 0, T_l(q) = ln(mu_l - q) - i pi and T_l(conj q) = conj T_l(q).
    At k_t > 0, T_l(q) = psi(1/2 - x) with x = (q - mu_l) / (2 pi i k_t), where
    Re(1/2 - x) >= 1/2, and psi(conj z) = conj psi(z) gives
    T_l(conj q) = conj T_l(q) + i pi; one _digamma call serves every group.
    """
    hot = [0.5 - (q - res.mu) / (2j * math.pi * res.k_t) for q, res in groups if res.k_t > 0.0]
    psi = _digamma(np.concatenate(hot)) if hot else None
    lower, upper, start = [], [], 0
    for q, res in groups:
        if res.k_t == 0.0:
            # -inf at an undamped mode on mu, which no weighted pair reads
            with np.errstate(divide="ignore"):
                lower.append(np.log(res.mu - q) - 1j * math.pi)
            upper.append(np.conj(lower[-1]))
        else:
            lower.append(psi[start:start + q.size])
            upper.append(np.conj(lower[-1]) + 1j * math.pi)
            start += q.size
    return np.concatenate(lower), np.concatenate(upper)


def _residue_pairs(poles, residues, res, lead):
    """Pole pairs (j, k) that carry weight on one lead, and their weights.

    Returns the index arrays jj, kk and theta_jk = Gamma_l Z_j P_l Z_k^dag,
    the outer product of column l of Z_j and Z_k, for every pair above
    1e-14 Gamma_l. A kept pair with r_j = conj(r_k) is an undamped mode that
    still couples to the lead, which raises SolverError.
    """
    r = np.asarray(poles, dtype=complex)
    col = np.stack(residues)[:, :, lead]
    theta = res.gamma * col[:, None, :, None] * np.conj(col)[None, :, None, :]
    jj, kk = np.nonzero(np.max(np.abs(theta), axis=(2, 3)) > 1e-14 * res.gamma)
    if jj.size and np.min(np.abs(r[jj] - np.conj(r[kk]))) < 1e-12:
        raise SolverError(
            "effectively undamped mode still couples to a lead; the"
            " steady state is undefined"
        )
    return jj, kk, theta[jj, kk]


def four_pole_steady_fluctuation(poles, residues, config: ModelConfig) -> np.ndarray:
    """V^s = (1/2pi) sum_l sum_jk Z_j P_l Z_k^dag int R_ljk(w) nbar_l(w) dw.

    R_ljk is rational with simple poles r_j, conj(r_k) (and mu_l -/+ i d_l
    for a Lorentzian lead) and decays at least like 1/w^2, so its
    partial-fraction coefficients c_m sum to zero and the integral is
    sum_m c_m T_l(p_m) exactly; C_l of _fermi_transforms cancels.
    """
    r = np.asarray(poles, dtype=complex)
    lorentzian = config.spectral_kind is SpectralKind.LORENTZIAN
    # R's lower poles on lead l, q_l: every mode and, for a Lorentzian lead,
    # mu_l - i d_l; its upper poles are their conjugates. The q_l lie end to
    # end, and each row of `rows` picks one pole of R per kept pair, the
    # lower ones first.
    groups, rows, numer, theta = [], [], [], []
    for lead, res in enumerate(config.reservoirs):
        j, k, th = _residue_pairs(r, residues, res, lead)
        if j.size == 0:
            continue
        start = sum(q.size for q, _ in groups)
        d = res.bandwidth
        if lorentzian:
            groups.append((np.append(r, res.mu - 1j * d), res))
            pole = np.full(j.size, start + r.size)
            rows.append([start + j, pole, start + k, pole])
        else:
            groups.append((r, res))
            rows.append([start + j, start + k])
        numer.append(np.full(j.size, d * d if lorentzian else 1.0))
        theta.append(th)
    v = np.zeros((2, 2), dtype=complex)
    if groups:
        q = np.concatenate([q for q, _ in groups])
        t_lo, t_hi = _fermi_transforms(groups)
        lower, upper = np.split(np.hstack(rows), 2)
        p = np.concatenate([q[lower], np.conj(q[upper])])  # (poles of R, kept pairs)
        t = np.concatenate([t_lo[lower], t_hi[upper]])
        gaps = p[:, None, :] - p[None, :, :]
        diag = np.arange(len(p))
        gaps[diag, diag] = 1.0
        c = np.concatenate(numer) / np.prod(gaps, axis=1)
        v = np.einsum("p,pab->ab", np.sum(c * t, axis=0), np.concatenate(theta))
    v = v / _TWO_PI
    v = 0.5 * (v + dagger(v))
    eigs = np.linalg.eigvalsh(v)
    if eigs.min() < EIGENVALUE_FLOOR or eigs.max() > EIGENVALUE_CEIL:
        raise InvariantViolation(
            f"steady fluctuation spectrum [{eigs.min():.3e}, {eigs.max():.3e}] leaves [0, 1]"
        )
    return v


def weighted_pairs(poles, residues, config: ModelConfig, leads=(0, 1)):
    """The pole pairs that carry weight on each coupled lead, one list per
    lead.

    Returns (lead, lams, jj, kk, theta) for every lead in leads with
    Gamma_l > 0: theta_jk = Gamma_l c_j c_k^dag for the pairs of poles
    lams_j, lams_k above 1e-14 Gamma_l. In the wide band lams are the poles
    r_j and c_j = Z_j P_l; a Lorentzian lead is the wide band of its
    pseudomode q_l = mu_l - i d_l, with c_j = Z_j P_l d_l / (r_j - q_l)
    (zero for a pole that rounds onto q_l) and q_l as a last pole with
    column -sum_j c_j. A kept pair with lams_j = conj(lams_k) raises
    SolverError.
    """
    r = np.asarray(poles, dtype=complex)
    leads = [lead for lead in leads if config.reservoirs[lead].gamma > 0.0]
    if not leads:
        return []
    coupled = [config.reservoirs[lead] for lead in leads]
    col = np.stack(residues)[:, :, leads].transpose(2, 0, 1)  # (lead, pole, dot)
    lams = np.broadcast_to(r, (len(leads), r.size))
    if config.spectral_kind is SpectralKind.LORENTZIAN:
        q = np.array([[res.mu - 1j * res.bandwidth] for res in coupled])
        gap = r - q
        d = np.array([[res.bandwidth] for res in coupled])
        col = col * np.divide(d, gap, out=np.zeros_like(gap), where=gap != 0.0)[..., None]
        col = np.concatenate([col, -col.sum(axis=1, keepdims=True)], axis=1)
        lams = np.hstack([lams, q])
    gamma = np.array([res.gamma for res in coupled])
    theta = (gamma[:, None, None, None, None] * col[:, :, None, :, None]
             * np.conj(col)[:, None, :, None, :])
    out = []
    for lead, lam, scale, th in zip(leads, lams, gamma, theta):
        jj, kk = np.nonzero(np.max(np.abs(th), axis=(2, 3)) > 1e-14 * scale)
        if jj.size and np.min(np.abs(lam[jj] - np.conj(lam[kk]))) < 1e-12:
            raise SolverError(
                "effectively undamped mode still couples to a lead; the"
                " steady state is undefined"
            )
        out.append((lead, lam, jj, kk, th[jj, kk]))
    return out


def pairwise_integrals(lams, jj, kk, mu, k_t):
    """N_p = int nbar(w) dw / ((w - a_p)(w - b_p)) for a_p = lams[jj[p]] and
    b_p = conj(lams[kk[p]]): (T(a) - T(b)) / (a - b), with T a logarithm at
    k_t = 0 and a digamma above (see dqdsim.spectral._pair_integrals)."""
    a, b = lams[jj], np.conj(lams[kk])
    if k_t == 0.0:
        return (np.log(mu - a) - np.log(mu - b) - _TWO_PI * 1j) / (a - b)
    psi = _digamma(0.5 - (lams - mu) / (2j * math.pi * k_t))
    return (psi[jj] - (np.conj(psi[kk]) + 1j * math.pi)) / (a - b)


def pairwise_steady_fluctuation(poles, residues, config: ModelConfig) -> np.ndarray:
    """V^s = (1/2pi) sum_l sum_jk theta_ljk N_l(lams_j, conj(lams_k)), one
    term per weighted pair; Lorentzian or wide band. Raises no invariant
    check of its own."""
    v = np.zeros((2, 2), dtype=complex)
    for lead, lams, jj, kk, theta in weighted_pairs(poles, residues, config):
        res = config.reservoirs[lead]
        v += np.einsum("p,pab->ab", pairwise_integrals(lams, jj, kk, res.mu, res.k_t), theta)
    return hermitian_part(v / _TWO_PI)


def pairwise_bm_stationary(config: ModelConfig) -> np.ndarray:
    """The Born-Markov X = sum_l nbar_l sum_jk theta_ljk / (i (r_j - conj(r_k)))
    over the leads that are coupled and occupied; zero when there are none."""
    occ = [fermi_occupation(eps, res.mu, res.k_t)
           for eps, res in zip((config.system.eps1, config.system.eps2), config.reservoirs)]
    sources = [lead for lead, (nbar, res) in enumerate(zip(occ, config.reservoirs))
               if nbar * res.gamma != 0.0]
    x = np.zeros((2, 2), dtype=complex)
    if not sources:
        return x
    modes = _modes(config)
    for lead, r, jj, kk, theta in weighted_pairs(modes.poles, modes.residues, config, sources):
        x += occ[lead] * np.einsum("p,pab->ab", 1.0 / (1j * (r[jj] - np.conj(r[kk]))), theta)
    return hermitian_part(x)


def wbl_lead_fluctuation(lams, jj, kk, theta, n_far, k_t, times, table):
    """One lead's contribution to the wide-band V on the grid times (zero at
    t = 0), one 2x2 term per kept pair: the pairs jj, kk with weights theta
    (weighted_pairs), their closed-form N_jk n_far (pairwise_integrals), and
    table, the _thermal_pair_table of the pairs and their transposes.

    With a = lam_j and b = conj(lam_k), the pair integrates
    (c0 - c1 e^{iwt} - c2 e^{-iwt}) nbar(w) / ((w - a)(w - b)) over w, from
    the thermal N_jk and I_jk(t) of the table. On rows t < tau* = 1/k_t the
    table's N_jk (its slot 0) and I_jk(t) share their Fermi-remainder
    panels; past tau* N_jk is n_far.
    """
    out = np.zeros((len(times), 2, 2), dtype=complex)
    t = times[1:]
    near = _near_rows(times, k_t) - 1  # rows of t before tau*
    for j, k, theta_jk, n_jk in zip(jj.tolist(), kk.tolist(), theta, n_far):
        a, b = lams[j], np.conj(lams[k])
        c0 = 1.0 + np.exp(1j * (b - a) * t)
        c1 = np.exp(-1j * a * t)
        c2 = np.exp(1j * b * t)
        n_t = np.full(t.size, table[j, k, 0])
        n_t[near:] = n_jk
        i_jk = c0 * n_t - c1 * table[j, k, 1:] - c2 * np.conj(table[k, j, 1:])
        out[1:] += i_jk[:, None, None] * theta_jk
    return out / _TWO_PI


def pairwise_wbl_fluctuation(config: ModelConfig, times) -> np.ndarray:
    """The wide-band V(t) of dqdsim.greens.wbl_greens, from the pair lists of
    weighted_pairs: one pair table per lead over its own pairs and their
    transposes, on the Fermi-remainder panels of width 2 k_T that wbl_greens
    sums, and one 2x2 term per pair (wbl_lead_fluctuation)."""
    modes = _modes(config)
    v = np.zeros((len(times), 2, 2), dtype=complex)
    for lead, lams, jj, kk, theta in weighted_pairs(modes.poles, modes.residues, config):
        res = config.reservoirs[lead]
        pairs = np.zeros((lams.size, lams.size), dtype=bool)
        pairs[jj, kk] = pairs[kk, jj] = True
        table = _thermal_pair_table(lams, pairs, res, times, 2.0 * res.k_t)
        n_far = pairwise_integrals(lams, jj, kk, res.mu, res.k_t)
        v += wbl_lead_fluctuation(lams, jj, kk, theta, n_far, res.k_t, times, table)
    return hermitian_part(v)
