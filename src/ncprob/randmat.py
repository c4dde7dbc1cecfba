"""Random-matrix oracles.

GUE sampling in the normalization where the empirical spectral
distribution tends to the standard semicircle law, Haar unitaries,
an asymptotic-freeness statistic over short alternating words, and the
free autoregressive toy model.

Two GUE samplers share one eigenvalue law.  ``gue_eigenvalues`` draws the
spectrum alone from the tridiagonal beta = 2 Hermite model (Dumitriu &
Edelman, J. Math. Phys. 43 (2002) 5830): 2N - 1 draws and a real
eigensolve, used by ``ncprob gue`` and ``wigner_check``.  ``sample_gue``
draws the dense complex matrix, which ``freeness_statistic`` and
``free_ar1`` need because they multiply matrices, not spectra.
"""

import math
from dataclasses import dataclass

import numpy as np

from .measures import AtomicMeasure, NcprobError, Semicircle, _check_count


def trace_state(a):
    """Normalized trace expectation phi(A) = tr(A)/N."""
    a = np.asarray(a)
    return float(np.trace(a).real) / a.shape[0]


def trace_product(a, b):
    """phi(AB) = sum_ij A_ij B_ji / N, in O(N^2) without forming AB."""
    return float(np.sum(a * b.T).real) / a.shape[0]


def sample_gue(n, seed):
    """GUE matrix: Hermitian, with N(0, 1/N) diagonal entries and
    independent N(0, 1/(2N)) real and imaginary parts above it, so
    E|a_ij|^2 = 1/N everywhere and E phi(A^2) = 1.

    ``seed`` is anything ``np.random.default_rng`` takes, a Generator
    included.  One (N, N) block of standard normals fills the matrix: the
    upper triangle and diagonal give the real parts, the strict lower
    triangle the imaginary parts."""
    _check_count(n, "N")
    z = np.random.default_rng(seed).standard_normal((n, n))
    diag = z.diagonal() * math.sqrt(1.0 / n)
    z *= math.sqrt(1.0 / (2 * n))
    # z and a are the only N x N buffers: a.real is z above the diagonal
    # and z.T below it, a.imag is z.T above and 0 - z below (not -z: a zero
    # entry must give +0.0 there, not -0.0)
    lower = np.tri(n, k=-1, dtype=bool)
    a = np.empty((n, n), dtype=complex)
    a.real = z.T
    np.copyto(a.real, z, where=~lower)
    a.imag = z.T
    np.subtract(0.0, z, out=a.imag, where=lower)
    a.flat[::n + 1] = diag
    return a


def gue_eigenvalues(n, seed):
    """Ascending eigenvalues of an N x N GUE matrix in ``sample_gue``'s
    scaling, from the beta = 2 Hermite model: a real symmetric tridiagonal
    matrix with N(0, 1) diagonal and sqrt(Gamma(k, 1)) = chi_2k / sqrt(2)
    off-diagonal entries, k = N-1, ..., 1, divided by sqrt(N).

    ``seed`` as in ``sample_gue``; the N normals are drawn first, then the
    N - 1 gammas.  LAPACK ``dsterf`` solves the tridiagonal matrix from its
    two bands in O(N^2), with no N x N buffer."""
    from scipy.linalg import eigvalsh_tridiagonal

    _check_count(n, "N")
    rng = np.random.default_rng(seed)
    d = rng.standard_normal(n)
    e = np.sqrt(rng.standard_gamma(np.arange(n - 1, 0, -1)))
    return eigvalsh_tridiagonal(d, e, lapack_driver="sterf") / math.sqrt(n)


def haar_unitary(n, seed):
    """Haar-distributed unitary via QR of a complex Ginibre matrix with the
    phase fix making the R diagonal positive; ``seed`` as in
    ``sample_gue``."""
    _check_count(n, "N")
    g = np.random.default_rng(seed).standard_normal((2, n, n))
    z = (g[0] + 1j * g[1]) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    q = q * (d / np.abs(d))
    return q


def esd(a):
    """Empirical spectral distribution: uniform atoms at the eigenvalues."""
    a = np.asarray(a)
    if a.shape[0] > 4096:
        raise NcprobError("dense eigensolve limited to 4096")
    if np.abs(a - a.conj().T).max() > 1e-12:
        raise NcprobError("matrix must be Hermitian")
    return _uniform_atoms(np.linalg.eigvalsh(a))


def _uniform_atoms(evals):
    n = evals.size
    return AtomicMeasure.from_pairs(
        [(float(x), 1.0 / n) for x in evals], merge_tol=0.0, renormalize=True
    )


semicircle_cdf = Semicircle(0.0, 1.0).cdf_exact


def marchenko_pastur_cdf(x):
    """CDF of MP(1): (2 theta + sin 2 theta) / pi, x = 4 sin^2 theta."""
    theta = np.arcsin(np.sqrt(np.clip(np.asarray(x, dtype=float), 0, 4) / 4))
    return (2 * theta + np.sin(2 * theta)) / math.pi


def kolmogorov_distance(measure, cdf):
    """sup_x |F_emp(x) - F(x)| for an atomic measure against a smooth CDF."""
    xs = measure.positions
    ws = measure.weights
    emp = np.cumsum(ws)
    target = cdf(xs)
    return float(np.maximum(np.abs(emp - target),
                            np.abs(emp - ws - target)).max())


def wigner_check(n, seeds):
    """Kolmogorov distances of single-sample GUE spectra (drawn by
    ``gue_eigenvalues``) to Semicircle(0,1)."""
    return [kolmogorov_distance(_uniform_atoms(gue_eigenvalues(n, s)),
                                semicircle_cdf)
            for s in seeds]


def freeness_statistic(a, b):
    """Largest |phi| over centered alternating words of length <= 4 in
    {A, A^2} and {B, B^2}; near zero for (asymptotically) free pairs.

    Each prefix product is formed once and shared by every word that
    extends it; a word's trace is taken against its last letter without
    forming the last product."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise NcprobError("matrices must share a shape")
    eye = np.eye(a.shape[0])

    def centered(m):
        m2 = m @ m
        return [m - trace_state(m) * eye, m2 - trace_state(m2) * eye]

    def worst_word(prefix, length, nxt, other):
        # words prefix * m * ... of lengths length+1 .. 4, m from nxt,
        # the letters after m alternating between other and nxt
        worst = 0.0
        for m in nxt:
            worst = max(worst, abs(trace_product(prefix, m)))
            if length + 1 < 4:
                worst = max(worst, worst_word(prefix @ m, length + 1,
                                              other, nxt))
        return worst

    xa, xb = centered(a), centered(b)
    return max(worst_word(p, 1, second, first)
               for first, second in ((xa, xb), (xb, xa)) for p in first)


@dataclass(frozen=True)
class FreeAR1Result:
    mean_last: float
    var_last: float
    mixed_moment: float
    noise_var_last: float
    var_trajectory: tuple


def free_ar1(n, steps, c, noise="gue", seed=0):
    """X_0 = I, X_m = c X_{m-1} + eps_m with GUE or centered squared-GUE
    noise; reports phi(X_m), phi(X_m^2), and the alternating mixed moment
    phi(X_{m-1} eps_m X_{m-1} eps_m).

    Traces are taken without forming the last product: phi(X^2) of the
    Hermitian X is sum |X_ij|^2 / N, and the mixed moment forms only
    P = X_{m-1} eps_m and reads phi(PP) with `trace_product`, so a call
    forms one N x N product (plus one per step for squared noise).  X is
    updated in place and no earlier X or noise is kept, so about three
    complex N x N arrays are alive at the peak."""
    _check_count(n, "N")
    _check_count(steps, "steps")
    if not abs(c) < 1:
        raise NcprobError("need |c| < 1 for stationarity")
    if noise not in ("gue", "squared_gue"):
        raise NcprobError("noise must be 'gue' or 'squared_gue'")
    rng = np.random.default_rng(seed)
    x = np.eye(n, dtype=complex)
    traj = []
    for step in range(steps):
        g = sample_gue(n, rng)
        if noise == "squared_gue":
            g = g @ g
            g.flat[::n + 1] -= trace_state(g)
        if step == steps - 1:
            pe = x @ g
            noise_var = float(np.vdot(g, g).real) / n
        x *= c
        x += g
        del g  # the next draw runs beside X alone
        traj.append(float(np.vdot(x, x).real) / n)
    mean = trace_state(x)
    return FreeAR1Result(
        mean_last=mean,
        var_last=traj[-1] - mean ** 2,
        mixed_moment=trace_product(pe, pe),
        noise_var_last=noise_var,
        var_trajectory=tuple(traj),
    )
