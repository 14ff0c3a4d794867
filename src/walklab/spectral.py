"""Eigenvalue machinery for reversible chains.

Kernels are conjugated by sqrt(pi) into symmetric form before solving,
which preserves the spectrum and admits symmetric solvers.  Dense mode
returns the full eigenvalue multiset, block by block when the source
graph carries a certified automorphism with uniform cycles that commutes
with the kernel; each block is reduced in place by one LAPACK call,
``?syevd``/``?heevd`` (the pair ``np.linalg.eigvalsh`` calls), or, for a
real block of size at least ``TWO_STAGE_MIN``, LAPACK 3.7's two-stage
``dsyevd_2stage``, whose bits differ from ``dsyevd``'s in the last places.
scipy does not wrap it: it is read from the OpenBLAS that scipy bundles
(scipy-openblas; scipy 1.17.1 ships OpenBLAS 0.3.30), which exports
it as ``scipy_dsyevd_2stage_``; without that symbol such a block raises.
Iterative mode finds the second largest and the
smallest eigenvalue together, from one run of the plain three-term
Lanczos recurrence on S off the top eigenvector sqrt(pi): it stops when
the Ritz estimate at both ends reaches working precision, or on a
breakdown (an invariant Krylov space), and a second pass replays the
recurrence to build the two Ritz vectors, so memory stays O(n).  Each
pair (theta, x) comes with its residual ||S x - theta x||, which for a
symmetric S and a unit x certifies an eigenvalue in [theta - r,
theta + r]; the Ramanujan verdict uses the conservative end of those
intervals, and so do the verdicts on the restricted Perron root
lambda(A) of a killed chain, found by the same routine.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import _flapack, get_lapack_funcs

from .chains import ReversibleChain, _family_blocks, product
from .graphs import Graph, _sorted_lookup, cyclic_automorphism, is_bipartite

DENSE_BUDGET = 3000
EIG_ONE_TOL = 1e-9
VERDICT_TOL = 1e-9       # slack of the Ramanujan and restricted-root verdicts
LANCZOS_MAX_STEPS = 20000
# bisection and inverse iteration on a float64 tridiagonal, the LAPACK
# pair that scipy.linalg.eigh_tridiagonal calls for one eigenpair by index
_STEBZ, _STEIN = get_lapack_funcs(("stebz", "stein"), (np.zeros(1),))
# the dense divide-and-conquer pair that np.linalg.eigvalsh calls, real
# symmetric and complex Hermitian, each with its workspace query
_SYEVD, _SYEVD_LWORK = get_lapack_funcs(("syevd", "syevd_lwork"),
                                        (np.zeros(1),))
_HEEVD, _HEEVD_LWORK = get_lapack_funcs(("heevd", "heevd_lwork"),
                                        (np.zeros(1, dtype=complex),))
# real blocks of this size and up go to LAPACK's two-stage reduction
# (dense to band, band to tridiagonal; Haidar, Ltaief and Dongarra, SC'11),
# dsyevd_2stage.  On one OpenBLAS thread its time over dsyevd's reads 1.33
# at 512, 1.04 at 832, 0.97 at 896, 0.86 at 1024, 0.66 at 2048 and 0.53 at
# 3000 (S of random 3-regular graphs, AVX-512 Xeon).  scipy does not wrap
# it; the OpenBLAS that scipy bundles exports it as a Fortran symbol, None
# when the install lacks it
TWO_STAGE_MIN = 1024
_DSYEVD_2STAGE_SYMBOL = "scipy_dsyevd_2stage_"
_DSYEVD_2STAGE = getattr(ctypes.CDLL(_flapack.__file__),
                         _DSYEVD_2STAGE_SYMBOL, None)
if _DSYEVD_2STAGE is not None:
    _DSYEVD_2STAGE.restype = None
    _DSYEVD_2STAGE.argtypes = ([ctypes.c_char_p] * 2 + [ctypes.c_void_p] * 9
                               + [ctypes.c_size_t] * 2)


class SpectralError(ValueError):
    pass


def rho(d: int) -> float:
    """Spectral radius of SRW on the infinite d-regular tree: 2 sqrt(d-1)/d."""
    return 2.0 * math.sqrt(d - 1) / d


def symmetrized(chain: ReversibleChain) -> sp.csr_matrix:
    """S = D^{1/2} P D^{-1/2} with D = diag(pi); symmetric by reversibility."""
    return _conjugated(chain.kernel, chain.stationary)


def _conjugated(p: sp.csr_matrix, pi: np.ndarray) -> sp.csr_matrix:
    """D^{1/2} P D^{-1/2}, D = diag(pi), on P's own entries in their
    order: p * sqrt(pi_i) * (1 / sqrt(pi_j)), and 0 where pi_j = 0."""
    root = np.sqrt(pi)
    inv = np.divide(1.0, root, out=np.zeros_like(root), where=root > 0)
    row = np.repeat(np.arange(p.shape[0]), np.diff(p.indptr))
    return sp.csr_matrix((p.data * root[row] * inv[p.indices], p.indices,
                          p.indptr), shape=p.shape)


@dataclass(frozen=True)
class SpectrumSummary:
    """Extremal (and optionally full) eigenvalue data of a chain kernel.

    ``lambda_star`` is the largest modulus among eigenvalues != 1, and
    ``t_rel = 1/(1 - lambda_star)`` (infinite for periodic chains).
    ``eigenvalues`` holds the full sorted multiset in dense mode, None in
    iterative mode.  ``rho_d`` is filled when the source graph is regular.
    ``blocks`` is ``{"m": m, "size": n // m}`` when the dense multiset was
    computed in cyclic symmetry blocks, None otherwise.
    """

    lambda2: float
    lambda_min: float
    lambda_star: float
    t_rel: float
    rho_d: object
    method: str
    residuals: dict = field(default_factory=dict)
    eigenvalues: object = None
    blocks: object = None


def _lambda_star(lambda2: float, lambda_min: float) -> float:
    candidates = []
    if lambda2 < 1.0 - EIG_ONE_TOL:
        candidates.append(abs(lambda2))
    candidates.append(abs(lambda_min))
    return max(candidates) if candidates else 0.0


def _t_rel(lambda_star: float) -> float:
    """1 / (1 - lambda_star), infinite within rounding of lambda_star = 1:
    a periodic chain's -1 comes out of a solver as -1 + an ulp or two."""
    return 1.0 / (1.0 - lambda_star) if lambda_star < 1.0 - 1e-15 \
        else math.inf


def _lanczos_steps(s: sp.csr_matrix, top):
    """The plain three-term Lanczos recurrence on ``s``.

    Yields (q_j, alpha_j, beta_j) for j = 1, 2, ...: the unit vector q_j,
    alpha_j = q_j . S q_j and beta_j = ||r_j||, where r_j = S q_j -
    alpha_j q_j - beta_{j-1} q_{j-1} and q_{j+1} = r_j / beta_j.  When
    ``top`` is a unit vector, the start and every r_j are projected off it,
    so the recurrence runs on S restricted to the complement of ``top``.
    The start is the first draw of a fixed Philox stream, so two runs
    yield the same bits; a caller stops before resuming past a beta_j of
    0.  Each step applies S once, through :func:`chains.product`.

    Four vectors of length n are allocated once and reused: q_j is a
    buffer that a later step overwrites, so a caller reads it before
    resuming.  Every operation is the one the textbook form spells out
    (``s @ q``, ``r -= alpha * q``, ``r / beta``) with its result written
    into a buffer, and ||r|| is sqrt(r . r), numpy's own norm formula, so
    the bits are those of the allocating form.
    """
    rng = np.random.Generator(np.random.Philox(key=np.uint64(7)))
    q = rng.standard_normal(s.shape[0])
    if top is not None:
        q -= (top @ q) * top
    q /= np.linalg.norm(q)
    prev, r, scaled = np.zeros_like(q), np.empty_like(q), np.empty_like(q)
    beta = 0.0
    while True:
        product(s, q, r)
        alpha = float(q @ r)
        r -= np.multiply(q, alpha, out=scaled)
        r -= np.multiply(prev, beta, out=scaled)
        if top is not None:
            r -= np.multiply(top, top @ r, out=scaled)
        beta = math.sqrt(r.dot(r))
        yield q, alpha, beta
        prev, q = q, np.divide(r, beta, out=prev)


def _ritz(alphas, betas, index) -> tuple:
    """``(theta, s)``: the eigenvalue of the tridiagonal T with diagonal
    ``alphas`` and off-diagonal ``betas`` at ``index`` of its ascending
    spectrum, and its unit eigenvector, by the calls that
    ``scipy.linalg.eigh_tridiagonal(..., select="i")`` makes (its 1 x 1
    shortcut, else ``_STEBZ`` in block order, then ``_STEIN``), so the
    bits are its bits."""
    d = np.asarray_chkfinite(alphas, dtype=float)
    if len(d) == 1:
        return d[0], np.ones(1)
    e = np.asarray_chkfinite(betas, dtype=float)
    m, w, block, split, info = _STEBZ(d, e, 2, 0.0, 1.0, index + 1,
                                      index + 1, 0.0, "B")
    if not info:
        vec, info = _STEIN(d, e, w[:m], block, split)
    if info:
        raise SpectralError(f"tridiagonal eigensolve failed "
                            f"(LAPACK info={info})")
    return w[0], vec[:, 0]


def _lanczos_extremal(s: sp.csr_matrix, ends: tuple, top=None):
    """Extreme eigenvalues of the symmetric ``s`` by plain Lanczos, each
    with its residual certificate.

    ``ends`` are positions in the ascending spectrum: -1 the largest, 0
    the smallest.  With ``top`` given (a unit vector), the run sees S on
    the complement of ``top`` only.  The first pass runs the recurrence of
    :func:`_lanczos_steps` and keeps only the alpha_j and beta_j of the
    tridiagonal T_k.  Every 16 steps it solves T_k for the Ritz pair
    (theta, s) at each end not yet settled (:func:`_ritz`, one eigenvalue
    by index, as ``eigh_tridiagonal`` solves it) and settles it once
    beta_k |s_k|, the residual estimate of that pair, is at most
    eps max(|theta|, eps^(2/3)) (the floor as in ARPACK).  The pass ends
    when every end is settled, or at once on a breakdown, beta_k <=
    sqrt(eps) ||T_k||: the Krylov space is invariant to that width, T_k's
    extreme eigenvalues are S's to within beta_k, and dividing by beta_k
    would lift the rounding in q_{k+1} past the sqrt(eps) level of
    orthogonality plain Lanczos relies on.  Reaching k = n is no reason
    to stop: the vectors lose orthogonality, so they are not exhausted
    there, and the ends keep converging.  The second pass replays the
    same recurrence and adds s_j q_j into each end's Ritz vector x, so
    memory stays a few vectors of length n, allocated once, never the
    k-column basis.

    Returns ([(theta, residual), ...] per end, applications): theta is the
    Rayleigh quotient x . S x of the normalised x, which minimises its
    residual ||S x - theta x||, computed against ``s`` itself, and
    ``applications`` counts the products with S in both passes.  Raises
    :class:`SpectralError` past ``LANCZOS_MAX_STEPS`` steps.
    """
    eps = np.finfo(float).eps
    alphas, betas = [], []
    found = [None] * len(ends)      # each end's s, once settled
    norm_t = 0.0
    for _, alpha, beta in _lanczos_steps(s, top):
        alphas.append(alpha)
        betas.append(beta)
        k = len(alphas)
        norm_t = max(norm_t, abs(alpha) + beta + (betas[-2] if k > 1 else 0))
        broke = beta <= math.sqrt(eps) * norm_t
        if broke or k % 16 == 0 or k == LANCZOS_MAX_STEPS:
            for e, end in enumerate(ends):
                if found[e] is not None:
                    continue
                theta, vec = _ritz(alphas, betas[:-1], end % k)
                if broke or beta * abs(vec[-1]) \
                        <= eps * max(abs(theta), eps ** (2 / 3)):
                    found[e] = vec
            if all(vec is not None for vec in found):
                break
        if k == LANCZOS_MAX_STEPS:
            raise SpectralError(
                f"Lanczos did not converge within {LANCZOS_MAX_STEPS} "
                f"steps ({k} operator applications)")
    replay = max(len(vec) for vec in found)
    xs = [np.zeros(s.shape[0]) for _ in ends]
    scaled, sx = np.empty(s.shape[0]), np.empty(s.shape[0])
    for j, (q, _, _) in enumerate(_lanczos_steps(s, top)):
        for x, vec in zip(xs, found):
            if j < len(vec):
                x += np.multiply(q, vec[j], out=scaled)
        if j + 1 == replay:
            break
    out = []
    for x in xs:
        x /= math.sqrt(x.dot(x))
        product(s, x, sx)
        theta = float(x @ sx)
        sx -= np.multiply(x, theta, out=scaled)
        out.append((theta, math.sqrt(sx.dot(sx))))
    return out, k + replay


def _commuting_symmetry(s: sp.csr_matrix, graph: Graph):
    """``(perm, m)`` from :func:`graphs.cyclic_automorphism` of ``graph``
    when the permutation h commutes with ``s``, S[h][:, h] == S entry for
    entry (checked on the stored entries in O(nnz log nnz)); else None."""
    if graph is None or graph.n != s.shape[0]:
        return None
    found = cyclic_automorphism(graph)
    if found is None:
        return None
    perm, n = found[0], graph.n
    keys, data = _entries(s)
    row, col = np.divmod(keys, n)
    moved = perm[row] * n + perm[col]
    there = np.argsort(moved)
    if np.array_equal(keys, moved[there]) \
            and np.array_equal(data, data[there]):
        return found
    return None


def _dsyevd_2stage_lwork(n: int, compute_v: int, lower: int):
    """``(work, iwork, info)`` of dsyevd_2stage's workspace query for an
    n x n matrix, as scipy's ``syevd_lwork`` returns them."""
    work, iwork = np.zeros(1), np.zeros(1, dtype=np.int32)
    info = _call_dsyevd_2stage(np.zeros(1), n, compute_v, lower, np.zeros(1),
                               work, -1, iwork, -1)
    return work[0], iwork[0], info


def _dsyevd_2stage(a: np.ndarray, compute_v: int, lower: int, lwork: int,
                   liwork: int, overwrite_a: int = 0):
    """``(w, a, info)`` of dsyevd_2stage on the symmetric float64 ``a``, as
    scipy's ``syevd`` returns them: a Fortran-ordered ``a`` is reduced in
    place under ``overwrite_a``, anything else in a copy.  The two-stage
    routines give eigenvalues alone, so compute_v = 1 returns info -1.
    The workspace is allocated here, by numpy, where tracemalloc sees it."""
    a = (np.asfortranarray(a, dtype=float) if overwrite_a
         else np.array(a, dtype=float, order="F"))
    w = np.empty(a.shape[0])
    info = _call_dsyevd_2stage(a, a.shape[0], compute_v, lower, w,
                               np.empty(lwork), lwork,
                               np.empty(liwork, dtype=np.int32), liwork)
    return w, a, info


def _call_dsyevd_2stage(a, n, compute_v, lower, w, work, lwork, iwork,
                        liwork) -> int:
    """LAPACK's info from one call of the Fortran symbol: 32-bit integers
    by reference, and the hidden lengths of the jobz and uplo characters
    last.  Raises SpectralError, naming the symbol, when scipy's LAPACK
    does not export it: a fallback would make report bits depend on the
    install."""
    if _DSYEVD_2STAGE is None:
        raise SpectralError(
            f"a real dense block of size >= {TWO_STAGE_MIN} needs LAPACK's "
            f"dsyevd_2stage, and scipy's LAPACK does not export "
            f"{_DSYEVD_2STAGE_SYMBOL}")
    ints = [ctypes.c_int32(v) for v in (n, max(n, 1), lwork, liwork, 0)]
    n_ref, lda, lwork_ref, liwork_ref, info = map(ctypes.byref, ints)
    _DSYEVD_2STAGE(b"V" if compute_v else b"N", b"L" if lower else b"U",
                   n_ref, a.ctypes.data, lda, w.ctypes.data, work.ctypes.data,
                   lwork_ref, iwork.ctypes.data, liwork_ref, info, 1, 1)
    return ints[-1].value


def _block_eigenvalues(s: sp.csr_matrix, perm: np.ndarray, m: int):
    """Eigenvalues of the symmetric ``s`` (ascending), from the Fourier
    blocks of a permutation h that commutes with it and whose cycles all
    have length m (m = 1: the identity, and the one block is ``s``).

    Each orbit o of h has representative r_o, its smallest vertex, and
    phi(v) is v's position along its orbit from there.  With omega =
    exp(2 pi i / m), block k is the Hermitian (n/m) x (n/m) matrix
    B_k[o, orbit(v)] = sum of omega^(k phi(v)) S(r_o, v), read off the
    representatives' rows alone; blocks k and m - k are conjugate, so
    k = 0 .. m // 2 are solved, one at a time, and the pairs counted twice
    (Babai, "Spectra of Cayley graphs", JCTB 27, 1979).
    Each block is built once, in Fortran order, and reduced in place.
    A complex block, and a real one smaller than ``TWO_STAGE_MIN``, goes
    to the ``?heevd``/``?syevd`` call that ``np.linalg.eigvalsh`` makes:
    its bits, without its copy.  A real block of ``TWO_STAGE_MIN`` or
    more goes to ``dsyevd_2stage`` (jobz 'N', uplo 'L'), faster there and
    with two-stage last bits; it needs the ``scipy_dsyevd_2stage_`` symbol
    of scipy's bundled OpenBLAS, and raises SpectralError naming it when
    that is missing.  A nonzero LAPACK info raises SpectralError.
    """
    n = s.shape[0]
    size = n // m
    smallest = np.arange(n)
    cur = perm
    for _ in range(m - 1):
        np.minimum(smallest, cur, out=smallest)
        cur = perm[cur]
    reps = np.flatnonzero(smallest == np.arange(n))
    orbit = np.empty(n, dtype=np.int64)
    phase = np.empty(n, dtype=np.int64)
    cur = reps
    for j in range(m):
        orbit[cur] = np.arange(size)
        phase[cur] = j
        cur = perm[cur]
    rows = s[reps].tocoo()   # row o is the representative of orbit o
    cell = orbit[rows.col] * size + rows.row   # (o, c) in Fortran order
    shift = phase[rows.col]
    # omega^t with omega^(m - t) the exact conjugate of omega^t and the
    # points on the axes exact, so a zero eigenvalue such as C4's comes
    # out 0, not an ulp of either sign
    half = np.exp(2j * np.pi * np.arange(m // 2 + 1) / m)
    half[0] = 1.0
    if m % 2 == 0:
        half[m // 2] = -1.0
    if m % 4 == 0:
        half[m // 4] = 1j
    omega = np.concatenate((half, half[1:(m + 1) // 2][::-1].conj()))
    parts = []
    for k in range(m // 2 + 1):
        w = omega[k * shift % m] * rows.data
        if 2 * k % m:
            block = np.empty(size * size, dtype=complex)
            block.real = np.bincount(cell, w.real, size * size)
            block.imag = np.bincount(cell, w.imag, size * size)
            solve, query = _HEEVD, _HEEVD_LWORK
        else:
            block = np.bincount(cell, w.real, size * size)
            solve, query = ((_SYEVD, _SYEVD_LWORK) if size < TWO_STAGE_MIN
                            else (_dsyevd_2stage, _dsyevd_2stage_lwork))
        # jobz 'N', uplo 'L' and the optimal workspace: a minimal one sends
        # ?sytrd down its unblocked path, slower and with other bits
        work, iwork, *rwork, _ = query(size, 0, 1)
        vals, info = solve(block.reshape(size, size, order="F"), 0, 1,
                           int(work.real), iwork, *map(int, rwork),
                           overwrite_a=1)[::2]   # not the overwritten block
        if info:
            raise SpectralError(f"dense eigensolve failed (LAPACK "
                                f"info={info})")
        del block       # before the next block is allocated
        parts.append(vals)
        if 0 < 2 * k < m:
            parts.append(vals)
    return np.sort(np.concatenate(parts))


def spectrum(chain: ReversibleChain, mode: str = "dense-full",
             source_graph: Graph = None) -> SpectrumSummary:
    """Eigenvalue summary of the chain kernel.

    dense-full computes the whole eigenvalue multiset (n at most
    ``DENSE_BUDGET``, whatever the block size) from the m // 2 + 1
    Hermitian blocks of size n/m of :func:`_block_eigenvalues`.  h is the
    :func:`graphs.cyclic_automorphism` of ``source_graph``, with cycle
    length m, when it commutes with S (checked entry for entry, so a chain
    passed with the wrong graph falls back), and ``blocks`` then records m
    and the size.  Otherwise h is the
    identity, m = 1, and the one block is S itself, solved by one dense
    LAPACK call, in place; ``blocks`` stays None.  Real blocks of size
    ``TWO_STAGE_MIN`` or more are reduced by ``dsyevd_2stage`` (the
    ``scipy_dsyevd_2stage_`` symbol of scipy's bundled OpenBLAS), smaller
    and complex ones by ``?syevd``/``?heevd``, so the eigenvalues of such a
    block carry two-stage last bits.
    iterative-extremal finds lambda2 and lambda_min as the largest and the
    smallest eigenvalue of S on the complement of its top eigenvector
    u = sqrt(pi)/||sqrt(pi)||, from one run of :func:`_lanczos_extremal`:
    the plain three-term Lanczos recurrence with the start and every new
    vector projected off u (projecting the start alone is not enough:
    rounding feeds u back in and Lanczos amplifies it until 1 shows up as
    lambda2).  Each end keeps the Ritz pair of the first 16-step check
    where its estimate is below eps |theta|; the run stops when both ends
    have one, or on a breakdown, and a second pass replays the recurrence
    to form the two Ritz vectors, so memory is a few vectors of length n.
    A negative lambda2 is found like any other.  On a reducible chain
    lambda2 = 1 exactly, with residual 0: sqrt(pi) on one class is an
    eigenvector for 1 orthogonal to u.  The run then seeks lambda_min
    alone.
    ``residuals`` holds each value's residual ||S x - theta x|| and, under
    both iteration keys, the operator applications of the shared run
    (both passes).  A residual r certifies that *some*
    eigenvalue lies in [theta - r, theta + r]; it does not certify that
    none lies above theta + r, which holds only if Lanczos found the
    extremal eigenvalue and not an interior one (Parlett, *The Symmetric
    Eigenvalue Problem*, ch. 4).
    """
    rho_d = None
    if source_graph is not None and source_graph.is_regular and source_graph.n:
        rho_d = rho(source_graph.regular_degree)

    if mode == "dense-full":
        if chain.n > DENSE_BUDGET:
            raise SpectralError(
                f"dense mode budget is n <= {DENSE_BUDGET}, got {chain.n}")
        s = symmetrized(chain)
        perm, m = (_commuting_symmetry(s, source_graph)
                   or (np.arange(chain.n), 1))
        eigs = _block_eigenvalues(s, perm, m)
        blocks = {"m": m, "size": chain.n // m} if m > 1 else None
        eigs_desc = eigs[::-1]
        lambda2 = float(eigs_desc[1]) if chain.n > 1 else 1.0
        lambda_min = float(eigs_desc[-1])
        nontrivial = eigs_desc[eigs_desc < 1.0 - EIG_ONE_TOL]
        lam = float(np.abs(nontrivial).max()) if len(nontrivial) else 0.0
        t_rel = _t_rel(lam)
        return SpectrumSummary(
            lambda2=lambda2, lambda_min=lambda_min, lambda_star=lam,
            t_rel=t_rel, rho_d=rho_d, method="dense-full",
            residuals={}, eigenvalues=eigs_desc.copy(), blocks=blocks)

    if mode != "iterative-extremal":
        raise SpectralError(f"unknown spectrum mode {mode!r}")
    if chain.n < 2:
        raise SpectralError("iterative mode needs at least two states")

    s = symmetrized(chain)
    top = np.sqrt(chain.stationary)
    top /= np.linalg.norm(top)
    if chain.is_irreducible:
        ((lambda2, res2), (lambda_min, resm)), steps = _lanczos_extremal(
            s, (-1, 0), top)
    else:
        lambda2, res2 = 1.0, 0.0
        ((lambda_min, resm),), steps = _lanczos_extremal(s, (0,), top)
    residuals = {"lambda2": res2, "lambda2_iterations": steps,
                 "lambda_min": resm, "lambda_min_iterations": steps}
    lam = _lambda_star(lambda2, lambda_min)
    t_rel = _t_rel(lam)
    return SpectrumSummary(
        lambda2=lambda2, lambda_min=lambda_min, lambda_star=lam,
        t_rel=t_rel, rho_d=rho_d, method="iterative-extremal",
        residuals=residuals, eigenvalues=None)


RAMANUJAN = "ramanujan"
ONE_SIDED = "one-sided-at-margin"
NEITHER = "neither"


@dataclass(frozen=True)
class RamanujanReport:
    category: str
    rho_d: float
    lambda2: float
    lambda2_over_rho: float
    min_nontrivial: float
    bipartite: bool


def classify_ramanujan(g: Graph, summary: SpectrumSummary) -> RamanujanReport:
    """Check whether all nontrivial eigenvalues lie in [-rho_d, rho_d].

    'ramanujan' when the two-sided bound holds; 'one-sided-at-margin'
    when only lambda2 clears rho_d while the bottom stays away from -1
    (finite-size stand-in for the one-sided asymptotic notion); else
    'neither'.  The margin lambda2/rho_d is always reported.  With
    iterative (extremal) data each eigenvalue is taken at the end of its
    residual interval that is worse for the verdict.  Every bound is
    tested with ``VERDICT_TOL`` of slack.
    """
    if not g.is_regular or g.regular_degree < 3:
        raise SpectralError("classification needs a d-regular graph with d >= 3")
    bip = is_bipartite(g)
    r = rho(g.regular_degree)
    lambda2 = summary.lambda2
    r2 = r_lo = 0.0     # residuals of lambda2 and of the lowest value
    if summary.eigenvalues is not None:
        eigs = np.asarray(summary.eigenvalues)
        nontrivial = eigs[np.abs(np.abs(eigs) - 1.0) > EIG_ONE_TOL]
        min_nt = float(nontrivial.min()) if len(nontrivial) else 0.0
        max_abs = float(np.abs(nontrivial).max()) if len(nontrivial) else 0.0
        two_sided = max_abs <= r + VERDICT_TOL
    else:
        # extremal data only, each value certified to within its residual;
        # the verdict uses the end of the interval that is worse for it.
        # For a connected bipartite graph the spectrum is symmetric, so
        # lambda2 <= rho implies the two-sided bound.
        r2 = summary.residuals["lambda2"]
        lam_min = summary.lambda_min
        if bip and lam_min <= -1.0 + EIG_ONE_TOL:
            min_nt, r_lo = -lambda2, r2
            two_sided = lambda2 + r2 <= r + VERDICT_TOL
        else:
            min_nt, r_lo = lam_min, summary.residuals["lambda_min"]
            two_sided = (max(abs(lambda2) + r2, abs(lam_min) + r_lo)
                         <= r + VERDICT_TOL)
    if two_sided:
        cat = RAMANUJAN
    elif lambda2 + r2 <= r + VERDICT_TOL \
            and min_nt - r_lo > -1.0 + VERDICT_TOL:
        cat = ONE_SIDED
    else:
        cat = NEITHER
    return RamanujanReport(
        category=cat, rho_d=r, lambda2=lambda2,
        lambda2_over_rho=lambda2 / r, min_nontrivial=min_nt,
        bipartite=bip)


def poincare_bound(n: int, lambda_star: float, eps: float):
    """Mixing-time bound (1/2) log(n / eps^2) / log(1 / lambda_star).

    Comes from chaining Jensen with the spectral contraction of the L2
    distance; for lambda_star = 0 the chain mixes exactly in one step
    from stationarity's perspective and 0 is returned.
    """
    if n < 2:
        raise SpectralError(f"need n >= 2, got {n}")
    if not (0.0 < eps < 1.0):
        raise SpectralError(f"eps must lie in (0,1), got {eps}")
    if lambda_star < 0.0 or lambda_star >= 1.0:
        raise SpectralError(
            f"lambda_star must lie in [0,1), got {lambda_star}")
    if lambda_star == 0.0:
        return 0.0
    return 0.5 * math.log(n / (eps * eps)) / math.log(1.0 / lambda_star)


@dataclass(frozen=True)
class RestrictedEig:
    """Perron root of the kernel restricted (killed) on a subset A.

    Carries both forms of the comparison with lambda2: the plain bound
    lambda(A) <= lambda2 + pi(A), asserted only when lambda2 >= -tol, and
    the always-valid refinement lambda(A) <= lambda2 + (1-lambda2) pi(A),
    where tol is ``VERDICT_TOL``.  For lambda2 in [-tol, 0) the plain bound
    lies at most |lambda2| pi(A) <= tol below the refined one, inside the
    pass test's tol slack, so an ulp of rounding around lambda2 = 0 does
    not decide whether the plain record exists.
    ``residual`` r certifies an eigenvalue in [lambda_A - r, lambda_A + r];
    ``iterations`` counts Lanczos operator applications.
    """

    subset: tuple
    lambda_A: float
    pi_A: float
    lambda2: object
    plain_bound: object
    plain_applicable: bool
    plain_pass: object
    refined_bound: object
    refined_pass: object
    iterations: int
    residual: float


def restricted_top_eig(chain: ReversibleChain, subset,
                       lambda2=None) -> RestrictedEig:
    """Largest eigenvalue of P_A, by Lanczos on its symmetrization.

    A must be a proper nonempty subset; P_A comes from
    :func:`chains._family_blocks`, which raises :class:`chains.ChainError`
    for a state out of range.  S_A = D^{1/2} P_A D^{-1/2} is
    symmetric and nonnegative, so its largest eigenvalue is lambda(A).
    On one state, or when P_A stores no entries, that is P_A's largest
    diagonal entry, with residual 0.  Otherwise :func:`_lanczos_extremal`
    computes it, with no projection: the plain Lanczos recurrence on S_A
    stops at the first 16-step check where the top Ritz estimate is below
    eps lambda(A), or on a breakdown (the Krylov space of an S_A with j
    distinct eigenvalues is invariant after j steps), and a second pass
    rebuilds the Ritz vector in O(|A|) memory; ``iterations`` counts both
    passes' products.  When ``lambda2`` is given, the bounds are checked
    at lambda(A) + residual; pass None to skip them.
    """
    subset = tuple(sorted(int(v) for v in set(subset)))
    if not subset:
        raise SpectralError("subset must be nonempty")
    if len(subset) >= chain.n:
        raise SpectralError("subset must be a proper subset of the states")
    _, _, _, sub = next(_family_blocks([chain.kernel], [subset]))
    pi_sub = chain.stationary[list(subset)]
    s_sub = _conjugated(sub, pi_sub)
    if len(subset) == 1 or sub.nnz == 0:
        lam, residual, iterations = float(sub.diagonal().max()), 0.0, 0
    else:
        ((lam, residual),), iterations = _lanczos_extremal(s_sub, (-1,))

    pi_A = float(pi_sub.sum())
    plain_bound = plain_pass = refined_bound = refined_pass = None
    plain_applicable = False
    if lambda2 is not None:
        plain_bound = lambda2 + pi_A
        refined_bound = lambda2 + (1.0 - lambda2) * pi_A
        plain_applicable = lambda2 >= -VERDICT_TOL
        top = lam + residual
        plain_pass = (top <= plain_bound + VERDICT_TOL) if plain_applicable \
            else None
        refined_pass = top <= refined_bound + VERDICT_TOL
    return RestrictedEig(
        subset=subset, lambda_A=lam, pi_A=pi_A, lambda2=lambda2,
        plain_bound=plain_bound, plain_applicable=plain_applicable,
        plain_pass=plain_pass, refined_bound=refined_bound,
        refined_pass=refined_pass, iterations=iterations, residual=residual)


@dataclass(frozen=True)
class ComparisonReport:
    """Two-chain domination of restricted Perron roots.

    With P1 <= C1 P2 entrywise on its support and stationary ratio bound
    C2, lambda_{P1}(A) <= C1 C2^2 lambda_{P2}(A).  ``passed`` tests the upper
    end of lambda_{P1}(A)'s residual interval against the lower end of
    lambda_{P2}(A)'s, with ``VERDICT_TOL`` of slack; ``residuals`` and
    ``iterations`` are the two solves'.
    """

    C1: float
    C2: float
    lhs: float
    rhs: float
    passed: bool
    residuals: tuple
    iterations: tuple


def _entries(kernel: sp.csr_matrix) -> tuple:
    """Ascending ``row * n + col`` keys of a kernel's summed entries, and
    the entries."""
    k = kernel.tocoo()
    k.sum_duplicates()
    return k.row.astype(np.int64) * k.shape[1] + k.col, k.data


def compare_restricted(chain1: ReversibleChain, chain2: ReversibleChain,
                       subset) -> ComparisonReport:
    if chain1.n != chain2.n:
        raise SpectralError("chains must share a state space")
    keys1, w1 = _entries(chain1.kernel)
    keys2, w2 = _entries(chain2.kernel)
    pos, found = _sorted_lookup(keys2, keys1)
    denom = np.where(found, w2[pos], 0.0)
    live = w1 > 0
    bad = np.flatnonzero(live & (denom <= 0))
    if len(bad):
        u, v = divmod(int(keys1[bad[0]]), chain1.n)
        raise SpectralError(f"support violation: P1({u},{v}) = "
                            f"{w1[bad[0]]:.3e} but P2({u},{v}) = 0")
    c1 = float(np.max(w1[live] / denom[live], initial=0.0))
    ratio = chain1.stationary / chain2.stationary
    c2 = float(max(ratio.max(), (1.0 / ratio).max()))
    one = restricted_top_eig(chain1, subset)
    two = restricted_top_eig(chain2, subset)
    scale = c1 * c2 * c2
    passed = (one.lambda_A + one.residual
              <= scale * max(two.lambda_A - two.residual, 0.0)
              + VERDICT_TOL)
    return ComparisonReport(
        C1=c1, C2=c2, lhs=one.lambda_A, rhs=scale * two.lambda_A,
        passed=passed, residuals=(one.residual, two.residual),
        iterations=(one.iterations, two.iterations))
