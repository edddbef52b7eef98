"""Two-mode Bose-Hubbard (Josephson) model: spectra and Gibbs states.

The model describes N bosons in two modes through collective spin operators
J_x, J_y, J_z with j = N/2:

    H = -Omega * J_x + zeta * J_z**2 + delta * J_z,  lambda = N * zeta / Omega.

The Rabi coupling Omega only sets the energy unit: H / Omega is

    H(lambda; delta) = -J_x + (lambda / N) * J_z**2 + delta * J_z

so the package works in units of Omega: energies, the tilt delta and the
temperature T are all in units of Omega.  In the J_z eigenbasis
{|m>, m = -j..j} H is a real symmetric tridiagonal matrix: J_z**2 and J_z
are diagonal, and J_x couples adjacent m.  The control parameter lambda
has a symmetry-breaking quantum phase transition at lambda = -1
(attractive side).

Every solve takes a whole lambda grid at fixed N and delta:
``equilibrium_states`` builds the Gibbs states, with their matrices and
J_z distributions, ``eigenvalues`` the lowest levels alone, and
``_parity_levels`` the untilted levels and their slopes from parity blocks.
Thermal states come from LAPACK bisection plus inverse iteration
(``_eigh``); ground states at T = 0 are solved together,
by Rayleigh-quotient iteration on the block-diagonal stack of a grid's
matrices, and each is certified by an LDL^T inertia count
(``_ground_states``).  Every linear solve, that iteration's and the pinned
systems of a susceptibility's outside part (``_outside``), is one ``dgtsv``
call on a block-diagonal stack (``_solve_shifted``).  The five LAPACK
routines come from the OpenBLAS that numpy links, bound with ctypes
(``_bind_lapack``) and called through thin wrappers (``dgtsv``, ``dpttrf``,
``dstebz``, ``dstein``, ``dstevd``); no other module binds LAPACK.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from numbers import Integral

import numpy as np


def _bind_lapack():
    """The five LAPACK routines, from the OpenBLAS that numpy links.

    numpy's wheel ships OpenBLAS with LAPACK built for 64-bit integers
    (ILP64), its symbols named ``scipy_<routine>_64_``.  numpy's linear
    algebra extension has that library loaded already, so opening the
    extension resolves them with no second copy of LAPACK in the process.
    Every argument goes by address, integers as int64, and each character
    argument takes gfortran's hidden length after the others.
    """
    path = np.linalg._umath_linalg.__file__
    lib = ctypes.CDLL(path)
    routines = []
    for name, pointers, characters in (
        ("dgtsv", 8, 0), ("dpttrf", 4, 0), ("dstebz", 18, 2),
        ("dstein", 13, 0), ("dstevd", 11, 1),
    ):
        symbol = f"scipy_{name}_64_"
        try:
            routine = getattr(lib, symbol)
        except AttributeError:
            raise ImportError(
                f"numpy {np.__version__} has no LAPACK symbol {symbol} (looked "
                f"up through {path}); bjjsense needs a numpy wheel whose "
                f"OpenBLAS exports it"
            ) from None
        routine.argtypes = (
            [ctypes.c_void_p] * pointers + [ctypes.c_size_t] * characters
        )
        routine.restype = None
        routines.append(routine)
    return routines


_dgtsv, _dpttrf, _dstebz, _dstein, _dstevd = _bind_lapack()
_RANGE = (b"A", b"V", b"I")
# Scalar arguments go in small ctypes arrays.  These names keep their types
# alive: ctypes caches an array type only while something refers to it, and
# making one costs about 12 us.
_INTS, _REALS = ctypes.c_int64 * 8, ctypes.c_double * 3


def _address(a: np.ndarray) -> int:
    """Address of the writable C-contiguous array ``a``, of any shape, or 0
    when it is empty (LAPACK then reads nothing there).

    A one-byte ctypes view of the buffer gives it in about 0.7 us, against
    about 1.5 us for ``ndarray.ctypes.data``, and needs no ctypes type per
    size; it raises unless ``a`` is writable and C-contiguous.
    """
    return ctypes.addressof(ctypes.c_char.from_buffer(a)) if a.size else 0


def _inout(a: np.ndarray, size: int) -> int:
    """Address of ``a``, which LAPACK overwrites: a writable C-contiguous
    float64 array of ``size`` entries."""
    if a.dtype != np.float64 or a.size != size:
        raise ValueError(
            f"LAPACK overwrites {size} float64 entries, got {a.dtype} {a.shape}"
        )
    return _address(a)


def _check_size(a: np.ndarray, size: int) -> None:
    """Raise unless ``a`` holds ``size`` entries, the number LAPACK reads."""
    if a.size != size:
        raise ValueError(f"LAPACK reads {size} entries, got {a.shape}")


def _copy(a, size: int) -> np.ndarray:
    """A C-contiguous float64 copy of ``a``, which must hold ``size``
    entries."""
    a = np.array(a, dtype=np.float64)
    _check_size(a, size)
    return a


def dgtsv(dl, d, du, b) -> int:
    """Solve the tridiagonal system with subdiagonal ``dl``, diagonal ``d``
    and superdiagonal ``du`` (n - 1, n and n - 1 entries) for the right-hand
    side ``b`` (n entries).  ``dl`` and ``du`` are copied; LAPACK overwrites
    ``d`` and ``b``, which then holds the solution.  Returns LAPACK's info:
    0, or i > 0 when the elimination met an exactly zero pivot at row i
    (from 1), which stops it there.
    """
    n = d.size
    if not n:
        return 0
    _check_size(dl, n - 1)
    _check_size(du, n - 1)
    bands = np.empty((2, n - 1))  # DL, DU
    bands[0], bands[1] = dl, du
    ints = _INTS()  # N, NRHS, LDB, INFO
    ints[0] = ints[2] = n
    ints[1] = 1
    i, low = ctypes.addressof(ints), _address(bands)
    _dgtsv(i, i + 8, low, _inout(d, n), low + 8 * (n - 1), _inout(b, n),
           i + 16, i + 24)
    return ints[3]


def dpttrf(d, e) -> int:
    """Factor the symmetric tridiagonal matrix with diagonal ``d`` and
    off-diagonal ``e`` as L D L^T.  ``e`` is copied; LAPACK overwrites ``d``
    with D.  Returns LAPACK's info: 0, or i > 0 when the i-th pivot (from
    1) is not positive, which stops the factorization there and leaves the
    entries of ``d`` past i as they were.
    """
    n = d.size
    off = _copy(e, max(n - 1, 0))
    ints = _INTS()  # N, INFO
    ints[0] = n
    i = ctypes.addressof(ints)
    _dpttrf(i, _inout(d, n), _address(off), i + 8)
    return ints[1]


def dstebz(d, e, select, vl, vu, il, iu, abstol, order):
    """Eigenvalues of the symmetric tridiagonal matrix with diagonal ``d``
    and off-diagonal ``e`` by bisection: all (``select`` 0), those in
    (vl, vu] (1) or the il-th to iu-th from 1 (2), to absolute tolerance
    ``abstol``, in block order ("B") or ascending ("E").  Returns (m, w,
    iblock, isplit, info): the first m entries of w are the eigenvalues,
    of iblock their blocks, and isplit holds the block ends.
    """
    n = d.size
    _check_size(e, n - 1)
    floats = np.empty(7 * n - 1)  # D, E, W, WORK
    floats[:n], floats[n : 2 * n - 1] = d, e
    iwork = np.empty(5 * n, dtype=np.int64)  # IBLOCK, ISPLIT, IWORK
    ints, reals = _INTS(), _REALS()  # N, IL, IU, M, NSPLIT, INFO; VL, VU, ABSTOL
    ints[0], ints[1], ints[2] = n, il, iu
    reals[0], reals[1], reals[2] = vl, vu, abstol
    i, r = ctypes.addressof(ints), ctypes.addressof(reals)
    f, iw = _address(floats), _address(iwork)
    w_at = f + 8 * (2 * n - 1)
    _dstebz(_RANGE[select], order.encode(), i, r, r + 8, i + 8, i + 16, r + 16,
            f, f + 8 * n, i + 24, i + 32, w_at, iw, iw + 8 * n, w_at + 8 * n,
            iw + 16 * n, i + 40, 1, 1)
    w = floats[2 * n - 1 : 3 * n - 1]
    return ints[3], w, iwork[:n], iwork[n : 2 * n], ints[5]


def dstein(d, e, w, iblock, isplit):
    """Eigenvectors of the symmetric tridiagonal matrix with diagonal ``d``
    and off-diagonal ``e`` for the m eigenvalues ``w`` that ``dstebz``
    returned in block order, with its ``iblock`` and ``isplit``, by inverse
    iteration.  Returns (z, info): z (n, m) holds the eigenvectors as
    columns.
    """
    n, m = d.size, w.size
    for a, size in ((e, n - 1), (iblock, n), (isplit, n)):
        _check_size(a, size)
    floats = np.empty(2 * n - 1 + m + m * n + 5 * n)  # D, E, W, Z, WORK
    floats[:n], floats[n : 2 * n - 1], floats[2 * n - 1 : 2 * n - 1 + m] = d, e, w
    iwork = np.empty(3 * n + m, dtype=np.int64)  # IBLOCK, ISPLIT, IWORK, IFAIL
    iwork[:n], iwork[n : 2 * n] = iblock, isplit
    ints = _INTS()  # N, M, LDZ, INFO
    ints[0], ints[1], ints[2] = n, m, n
    i, f, iw = ctypes.addressof(ints), _address(floats), _address(iwork)
    z_at = f + 8 * (2 * n - 1 + m)
    _dstein(i, f, f + 8 * n, i + 8, f + 8 * (2 * n - 1), iw, iw + 8 * n, z_at,
            i + 16, z_at + 8 * m * n, iw + 16 * n, iw + 24 * n, i + 24)
    z = floats[2 * n - 1 + m : 2 * n - 1 + m + m * n]  # the columns of Z
    return z.reshape(m, n).T, ints[3]


def dstevd(d, e, compute_v=True):
    """All eigenvalues, and the eigenvectors when ``compute_v``, of the
    symmetric tridiagonal matrix with diagonal ``d`` and off-diagonal ``e``
    by divide and conquer.  Returns (w, z, info): the eigenvalues
    ascending and z (n, n) the eigenvectors as columns, or None without
    them.
    """
    n = d.size
    lwork, liwork = (1 + 4 * n + n * n, 3 + 5 * n) if compute_v and n > 1 else (1, 1)
    w, ee = _copy(d, n), _copy(e, n - 1)
    z = np.empty((n, n) if compute_v else 0)  # the columns of Z, each contiguous
    work = np.empty(lwork)
    iwork = np.empty(liwork, dtype=np.int64)
    ints = _INTS()  # N, LDZ, LWORK, LIWORK, INFO
    ints[0], ints[1], ints[2], ints[3] = n, n, lwork, liwork
    i = ctypes.addressof(ints)
    _dstevd(b"V" if compute_v else b"N", i, _address(w), _address(ee),
            _address(z), i + 8, _address(work), i + 16, _address(iwork),
            i + 24, i + 32, 1)
    return w, z.T if compute_v else None, ints[4]


# Levels whose Boltzmann weight relative to the ground state falls below
# this are left out of thermal states; the neglected weight is at most
# dimension * REL_CUTOFF.
REL_CUTOFF = 1e-12

# An untilted gap below this many units of roundoff, eps * ||H||, is taken
# as closed: untilted ground states and gap-minimum brackets are rejected.
GAP_ROUNDOFF = 1e3

# A stack of states from ``equilibrium_states`` holds at most this many
# eigenvector entries.
STACK_ENTRIES = 2**17

# Tilted ground states (``_ground_states``).  A cold start bisects the lowest
# eigenvalue only to this absolute tolerance, in units of Omega; it is well
# below the smallest gaps of the tilt search (6.5e-5 at N = 101, delta = 1e-6).
COARSE_ABSTOL = 1e-6
# Rayleigh-quotient steps a point may take before it counts as failed.
RQI_STEPS = 8
# Certificate, in units of roundoff eps * ||H||: a converged point's residual
# ||H x - E x|| is at most RESIDUAL_ROUNDOFF units, and H - (E - tau) I with
# tau = INERTIA_MARGIN units must factor as L D L^T with D > 0, so that no
# eigenvalue lies below E - tau.
RESIDUAL_ROUNDOFF = 64.0
INERTIA_MARGIN = 64.0


class EigensolverError(RuntimeError):
    """Raised when the tridiagonal eigensolver fails to converge."""


def _check_temperature(temperature: float) -> None:
    """Raise ValueError unless ``temperature`` is finite and >= 0."""
    if not 0.0 <= temperature < math.inf:
        raise ValueError(f"temperature must be finite and >= 0, got {temperature}")


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the two-mode model.

    Parameters
    ----------
    n_particles : int
        Total boson number N >= 1.  Matrix dimension is N + 1.
    lambda_control : float
        Dimensionless interaction lambda = N * zeta / Omega.  Negative
        (attractive) values probe the symmetry-breaking transition.
    imbalance : float
        Symmetry-breaking tilt delta, in units of Omega.
    """

    n_particles: int
    lambda_control: float = 0.0
    imbalance: float = 0.0

    def __post_init__(self):
        n = self.n_particles
        if not isinstance(n, Integral) or isinstance(n, bool) or n < 1:
            raise ValueError(f"n_particles must be an integer >= 1, got {n!r}")
        for name in ("lambda_control", "imbalance"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")

    @property
    def interaction(self) -> float:
        """Interaction zeta = lambda / N, in units of Omega."""
        return self.lambda_control / self.n_particles

    @property
    def dimension(self) -> int:
        return self.n_particles + 1


@lru_cache(maxsize=32)
def _spin(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What N alone fixes, built once per size as read-only arrays: the J_z
    eigenvalues m = -j..j, V = J_z**2 / N shifted to zero mean (a constant
    changes no chi), and the (N,) off-diagonal of H, the J_x couplings."""
    j = n / 2.0
    m = np.arange(n + 1, dtype=float) - j
    mm = m[:-1]
    # J_x matrix element between m and m+1: sqrt(j(j+1) - m(m+1)) / 2
    off = -0.5 * np.sqrt(j * (j + 1.0) - mm * (mm + 1.0))
    v = (1.0 / n) * m * m
    v = v - v.mean()
    for a in (m, v, off):
        a.flags.writeable = False
    return m, v, off


def _diagonals(
    params: ModelParams, lambdas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals of H at each of ``lambdas`` and their shared off-diagonal.

    N and delta come from ``params``; its own lambda is not read.
    Returns the (B, N+1) diagonals zeta * m**2 + delta * m and the (N,)
    off-diagonal of ``_spin``, which lambda does not change.  Raises
    ValueError when an entry overflows.
    """
    n = params.n_particles
    m, _, off = _spin(n)
    with np.errstate(over="ignore", invalid="ignore"):
        zeta = lambdas / n
        diag = zeta[:, None] * m * m + params.imbalance * m
    if not np.isfinite(diag).all():
        lam = float(lambdas[np.argmin(np.isfinite(diag).all(axis=1))])
        raise ValueError(
            f"Hamiltonian entries overflow at N={n}, lambda={lam}, "
            f"delta={params.imbalance} (in units of Omega)"
        )
    return diag, off


def _select_sign(rows: np.ndarray) -> np.ndarray:
    """Fix each eigenvector's overall sign: largest-|amplitude| entry > 0.

    Eigenvectors are the rows (last axis) of ``rows``, so a (B, k, N+1)
    stack is fixed at once.
    """
    flat = rows.reshape(-1, rows.shape[-1])
    signs = np.sign(flat[np.arange(len(flat)), np.abs(flat).argmax(axis=1)])
    signs[signs == 0] = 1.0
    return rows * signs.reshape(rows.shape[:-1] + (1,))


def _eigh(
    d: np.ndarray,
    e: np.ndarray,
    vectors: bool,
    n_levels: int | None = None,
    window: tuple[float, float] | None = None,
):
    """The one call into the tridiagonal eigensolver.

    Solves the matrix with diagonal ``d`` and off-diagonal ``e`` for the
    lowest ``n_levels`` levels (all if None) or, when ``window`` = (lo, hi)
    is given, for the levels with lo < E <= hi.  Calls the LAPACK drivers
    that ``scipy.linalg.eigh_tridiagonal`` picks, with its arguments: the
    full spectrum by divide and conquer (``dstevd``), subsets by bisection
    (``dstebz``) plus inverse iteration (``dstein``).  Returns the
    eigenvalues, or (eigenvalues, eigenvectors) when ``vectors``.
    """
    if window is None and n_levels in (None, d.size):
        driver = "dstevd"
        w, v, info = dstevd(d, e, compute_v=vectors)
    else:
        driver = "dstebz"
        select, lo, hi, top = (
            (2, 0.0, 1.0, n_levels) if window is None else (1, *window, 1)
        )
        count, w, block, split, info = dstebz(
            d, e, select, lo, hi, 1, top, 0.0, "B" if vectors else "E"
        )
        w = w[:count]
        if vectors and info == 0:
            driver = "dstein"
            v, info = dstein(d, e, w, block, split)
            order = np.argsort(w)
            w, v = w[order], v[:, order]
    if info != 0:
        raise EigensolverError(
            f"tridiagonal solver {driver} failed (info={info}) for dimension "
            f"{d.size}"
        )
    return (w, v) if vectors else w


def _boltzmann(energies: np.ndarray, temperature: float) -> np.ndarray:
    """Normalized Boltzmann weights over the last axis of ``energies``, at
    ``temperature`` > 0."""
    w = np.exp(-(energies - energies[..., :1]) / temperature)
    return w / w.sum(axis=-1, keepdims=True)


def _gershgorin(diagonal: np.ndarray, offdiagonal: np.ndarray):
    """max_i (diagonal_i + |e_i| + |e_(i-1)|) over the rows of H, for each
    diagonal along the last axis of ``diagonal``."""
    off = np.abs(offdiagonal)
    rows = diagonal.copy()
    rows[..., :-1] += off
    rows[..., 1:] += off
    return rows.max(axis=-1)


def _matvec(diag: np.ndarray, band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """H x for each row of the stacks ``diag`` and ``x``, with the couplings
    ``band`` of ``_solve_shifted``: two passes over the whole flattened
    stack, where the zero coupling between blocks adds nothing."""
    hx = diag * x
    flat, xs, coupling = hx.reshape(-1), x.reshape(-1), band.reshape(-1)[:-1]
    flat[:-1] += coupling * xs[1:]
    flat[1:] += coupling * xs[:-1]
    return hx


def _solve_shifted(shifted: np.ndarray, band: np.ndarray, rhs: np.ndarray) -> int:
    """Solve (H_b - shift_b) y_b = rhs_b for every row b by one ``dgtsv`` call.

    ``shifted`` (B, n) holds the diagonals of H_b - shift_b and the leading
    B rows of ``band`` their couplings, each row ending in the zero that
    couples it to the next, so that the elimination runs through each block
    as it would through that block alone.  LAPACK overwrites ``shifted`` and
    the C-contiguous ``rhs``, which then holds y; ``band`` is read.
    Returns -1, or the first row whose elimination met an exactly zero
    pivot, where the solve stopped: ``rhs`` then holds no solution.
    """
    points, size = rhs.shape
    coupling = band[:points].reshape(-1)[:-1]
    info = dgtsv(coupling, shifted.reshape(-1), coupling, rhs)
    return (info - 1) // size if info else -1


def _outside(
    s: StateStack, rhs: np.ndarray, params: ModelParams, lambdas: np.ndarray
) -> np.ndarray:
    """y_n = Q d|n> for every occupied level n of every point of ``s``.

    Solves (H - E_n) y = rhs_n, pinned to 0 at the largest entry of |n>;
    ``rhs`` (B, k, N+1) is set to 0 at the pins.  The B k pinned systems are
    the blocks of one ``_solve_shifted`` call, which writes y over ``rhs``.
    Raises EigensolverError, naming the point's lambda (N and delta from
    ``params``), when a system meets an exactly zero pivot.
    """
    points, levels, size = rhs.shape
    shifted = (s.diagonal[:, None, :] - s.energies[:, :, None]).reshape(-1, size)
    rhs = rhs.reshape(-1, size)
    pin = np.abs(s.vectors).argmax(axis=2).reshape(-1)
    row = np.arange(pin.size)
    band = np.zeros_like(shifted)
    band[:, :-1] = s.offdiagonal
    # Cut both couplings of the pinned row; at either end, pin - 1 = -1 or
    # pin = size - 1 indexes the zero between blocks.
    band[row, pin - 1] = 0.0
    band[row, pin] = 0.0
    shifted[row, pin] = 1.0
    rhs[row, pin] = 0.0
    bad = _solve_shifted(shifted, band, rhs)
    if bad >= 0:
        lam = float(lambdas[bad // levels])
        raise EigensolverError(
            f"tridiagonal solve met a zero pivot at "
            f"{replace(params, lambda_control=lam)}"
        )
    return rhs.reshape(points, levels, size)


def _rayleigh(
    diag: np.ndarray, band: np.ndarray, x: np.ndarray, shift: np.ndarray,
    eps_h: np.ndarray, coarse: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rayleigh-quotient iteration from the unit rows ``x`` and ``shift``.

    Each row b steps y = (H_b - shift_b)^-1 x_b, then shift_b + x_b . y /
    |y|^2 is the Rayleigh quotient of y and the next shift, and y / |y| the
    next x_b.  That vector has residual |(H_b - shift_b) y / |y|| = 1 / |y|
    against the old shift, and the row stops once that is at most
    RESIDUAL_ROUNDOFF eps ||H_b||.  Rows stop on their own test, so a row's
    numbers do not depend on the other rows; the rows still stepping are
    gathered only when one stops or fails: a row whose solve meets an
    exactly zero pivot leaves, and the others are solved again.  ``band``
    holds the shared couplings of the stack (see ``_solve_shifted``), each
    step takes its leading rows.  When ``coarse``, the first shifts are
    bisection estimates rather than Rayleigh quotients, and the first step
    is not tested.  Returns (energies, vectors, converged); a row that meets a zero
    pivot or runs out of RQI_STEPS steps has not converged.
    """
    points = x.shape[0]
    energies, vectors = np.empty(points), np.empty_like(x)
    converged = np.zeros(points, dtype=bool)
    rows, limit = np.arange(points), RESIDUAL_ROUNDOFF * eps_h
    for step in range(RQI_STEPS):
        y = x.copy()
        while (bad := _solve_shifted(diag - shift[:, None], band, y)) >= 0:
            keep = np.arange(rows.size) != bad
            rows, diag, x, shift, limit = (
                rows[keep], diag[keep], x[keep], shift[keep], limit[keep]
            )
            y = x.copy()
        if not rows.size:
            break
        norm = np.sqrt((y * y).sum(axis=1))
        shift = shift + (x * y).sum(axis=1) / (norm * norm)
        x = y / norm[:, None]
        if coarse and not step:
            continue
        done = 1.0 / norm <= limit
        if done.any():
            at = rows[done]
            energies[at], vectors[at], converged[at] = shift[done], x[done], True
            if len(at) == len(rows):
                break
            rest = ~done
            rows, diag, x, shift, limit = (
                rows[rest], diag[rest], x[rest], shift[rest], limit[rest]
            )
    return energies, vectors, converged


def _certified(
    diag: np.ndarray, band: np.ndarray, energies: np.ndarray,
    vectors: np.ndarray, eps_h: np.ndarray,
) -> np.ndarray:
    """Mask of the rows whose (energy, vector) is certified as the ground
    state.

    A row passes when its residual |H x - E x| is at most RESIDUAL_ROUNDOFF
    eps ||H|| and ``dpttrf`` factors H - (E - tau) I, tau = INERTIA_MARGIN
    eps ||H||, as L D L^T with D > 0.  That inertia count is backward stable
    (Kahan), so no eigenvalue lies below E - tau, while the residual puts
    one within the residual of E: for a gap above tau plus the residual,
    that eigenvalue is the lowest, and x its eigenvector.  All rows share
    one factorization of the block-diagonal stack, whose couplings are the
    leading rows of ``band`` (see ``_solve_shifted``), restarted after the
    first block that fails: ``dpttrf`` leaves the blocks past a failed
    pivot as they were.
    """
    points, size = diag.shape
    band = band[:points]
    r = _matvec(diag, band, vectors) - energies[:, None] * vectors
    ok = np.sqrt((r * r).sum(axis=1)) <= RESIDUAL_ROUNDOFF * eps_h
    shifted = diag - (energies - INERTIA_MARGIN * eps_h)[:, None]
    first = 0
    while first < points:
        info = dpttrf(shifted[first:], band[first:].reshape(-1)[:-1])
        if info == 0:
            break
        bad = first + (info - 1) // size
        ok[bad] = False
        first = bad + 1
    return ok


def _ground_states(
    diag: np.ndarray, off: np.ndarray, start: np.ndarray | None = None,
    lowest: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ground states of the (B, n) stack ``diag`` with shared off-diagonal
    ``off``, solved together.

    Warm start, when ``start`` (B, n) holds approximate ground states (the
    states of a nearby tilt): Rayleigh-quotient iteration from them, with
    no bisection.  Cold start, for every row the warm start did not
    certify: one ``dstebz`` bisection per row to COARSE_ABSTOL, or the
    row's entry of ``lowest`` (B,) when its lowest eigenvalue has already
    been bisected, gives the first shift of the iteration, which starts
    from the uniform vector
    (the ground state of a Jacobi matrix with negative couplings has
    positive entries, so it is never orthogonal to it).  Each row is kept
    only if ``_certified``.  The couplings of the block-diagonal stack are
    built once, and every solve and factorization takes their leading rows.
    Returns (energies (B,), vectors (B, n), solved (B,)); the rows not
    solved are left to ``_eigh``.
    """
    points, size = diag.shape
    eps_h = np.finfo(float).eps * _gershgorin(np.abs(diag), off)
    band = np.zeros((points, size))
    band[:, :-1] = off
    energies, vectors = np.empty(points), np.empty_like(diag)
    solved = np.zeros(points, dtype=bool)

    def run(rows: np.ndarray, x: np.ndarray, shift: np.ndarray, coarse: bool):
        d, eps = diag[rows], eps_h[rows]
        e, v, ok = _rayleigh(d, band, x, shift, eps, coarse)
        if not ok.all():
            rows, d, eps, e, v = rows[ok], d[ok], eps[ok], e[ok], v[ok]
        ok = _certified(d, band, e, v, eps)
        if not ok.all():
            rows, e, v = rows[ok], e[ok], v[ok]
        energies[rows], vectors[rows], solved[rows] = e, v, True

    if start is not None:
        x = start / np.sqrt((start * start).sum(axis=1))[:, None]
        run(np.arange(points), x, (x * _matvec(diag, band, x)).sum(axis=1), False)
    cold, shift = [], []
    for b in np.flatnonzero(~solved):
        if lowest is None:
            count, w, _, _, info = dstebz(
                diag[b], off, 2, 0.0, 1.0, 1, 1, COARSE_ABSTOL, "E"
            )
            if info != 0 or count != 1:
                continue
            e0 = w[0]
        else:
            e0 = lowest[b]
        cold.append(b)
        shift.append(e0)
    if cold:
        run(np.array(cold), np.full((len(cold), size), size ** -0.5),
            np.array(shift), True)
    return energies, vectors, solved


@dataclass(frozen=True)
class StateStack:
    """Gibbs states of H(lambda) at B points sharing N and delta.

    Every point holds the same number k of occupied levels: ``diagonal``
    (B, N+1) and the shared ``offdiagonal`` (N,) are the matrices,
    ``energies`` (B, k) their occupied eigenvalues, ascending, ``vectors``
    (B, k, N+1) the eigenvectors as rows, each signed so that its
    largest-magnitude entry is positive, and ``weights`` (B, k) the
    Boltzmann weights.
    """

    diagonal: np.ndarray
    offdiagonal: np.ndarray
    energies: np.ndarray
    vectors: np.ndarray
    weights: np.ndarray

    @property
    def size(self) -> int:
        return self.energies.shape[0]

    @property
    def probabilities(self) -> np.ndarray:
        """J_z distribution P(m) = sum_k w_k |<m|k>|^2, (B, N+1), m = -j..j."""
        u = self.vectors
        return (self.weights[:, None, :] @ (u * u))[:, 0]


def _occupied_levels(
    d: np.ndarray, off: np.ndarray, temperature: float
) -> tuple[np.ndarray, np.ndarray]:
    """Occupied eigenpairs of one matrix; see ``equilibrium_states``.  At
    T = 0 it solves only a ground state that ``_ground_states`` did not
    certify."""
    if temperature == 0.0:
        return _eigh(d, off, True, n_levels=1)
    e0 = float(_eigh(d, off, False, n_levels=1)[0])
    # At a tiny T, E_0 + T ln(1 / REL_CUTOFF) rounds to E_0 and the window's
    # bisection may place the ground level just above it; a floor of a few
    # units of roundoff keeps it in.
    roundoff = RESIDUAL_ROUNDOFF * np.finfo(float).eps * _gershgorin(np.abs(d), off)
    top = e0 + max(temperature * np.log(1.0 / REL_CUTOFF), roundoff)
    window = None if top > _gershgorin(d, off) else (e0 - 1.0, top)
    return _eigh(d, off, True, window=window)


def equilibrium_states(params: ModelParams, lambdas, temperature: float):
    """Gibbs states on the thermally occupied levels, at each of ``lambdas``.

    The one state builder.  N and delta come from ``params``; one
    array expression builds the diagonals of every point.  Yields
    (start, StateStack) for runs of consecutive points that hold the same
    number of occupied levels, so a run at T = 0 is the whole grid; a run
    holds at most STACK_ENTRIES eigenvector entries (1 MB), which bounds
    the memory of a thermal scan at large N.

    Per point: T = 0 is the ground state alone, and the ground states of a
    run are solved together (``_ground_states``): one coarse bisection per
    point (none without a tilt, where the splitting check below has
    bisected E_0 already), then Rayleigh-quotient iteration on the
    block-diagonal stack of
    the run's matrices, one ``dgtsv`` call per step.  A point stops on its
    own residual test, so its state does not depend on the other points of
    the run, and it is kept only if an L D L^T inertia count certifies it
    as the ground state; a point that fails is solved alone by bisection
    plus inverse iteration.  Without a tilt (imbalance 0) the ground state
    has a mirror partner, and deep in the broken phase their splitting
    E_1 - E_0 falls below roundoff, where every chi would be noise.  So
    the two lowest eigenvalues of every point are bisected first, and a
    splitting below GAP_ROUNDOFF * eps * ||H|| (eps the machine epsilon,
    ||H|| the Gershgorin bound on |E|) raises ValueError before any state
    is solved: below it the eigenvector error, about
    eps ||H|| / (E_1 - E_0), exceeds 1e-3.  At T > 0 the ground energy E_0
    comes first, then one bisection call returns the eigenpairs with
    E - E_0 <= T ln(1 / REL_CUTOFF), i.e. every level whose relative
    Boltzmann weight is at least REL_CUTOFF, and inverse iteration their
    vectors; the bound is at least RESIDUAL_ROUNDOFF eps ||H||, so that a T
    too small to move E_0 in floating point still leaves the ground level
    in the window.  When that bound lies above the Gershgorin upper bound
    of H, every level is occupied and one full solve replaces the
    bisection.  The weight left out is at most dimension * REL_CUTOFF.
    """
    return _states(params, lambdas, temperature)


def _states(
    params: ModelParams, lambdas, temperature: float,
    start: np.ndarray | None = None,
):
    """``equilibrium_states``, with approximate ground states ``start``
    (B, N+1) to warm-start the T = 0 route (see ``_ground_states``).
    """
    _check_temperature(temperature)
    lambdas = np.asarray(lambdas, dtype=float)
    diag, off = _diagonals(params, lambdas)

    def solve(b: int, solver, *args):
        """``solver(diag[b], off, *args)``; an EigensolverError names point
        b."""
        try:
            return solver(diag[b], off, *args)
        except EigensolverError as err:
            raise EigensolverError(
                f"{err} at N={params.n_particles}, lambda={lambdas[b]}, "
                f"delta={params.imbalance}"
            ) from err

    if temperature == 0.0:
        lowest = None
        if params.imbalance == 0.0:
            bound = GAP_ROUNDOFF * np.finfo(float).eps * _gershgorin(np.abs(diag), off)
            lowest = np.empty(lambdas.size)
            for b in range(lambdas.size):
                e0, e1 = solve(b, _eigh, False, 2)
                if e1 - e0 < bound[b]:
                    raise ValueError(
                        f"untilted ground state unresolved at N={params.n_particles}, "
                        f"lambda={lambdas[b]}: E1 - E0 = {e1 - e0:.3g} is "
                        f"below the roundoff bound {bound[b]:.3g}; give the junction a "
                        f"nonzero imbalance"
                    )
                lowest[b] = e0
        rows = max(1, STACK_ENTRIES // diag.shape[1])
        for first in range(0, lambdas.size, rows):
            at = slice(first, first + rows)
            energies, vectors, solved = _ground_states(
                diag[at], off, None if start is None else start[at],
                None if lowest is None else lowest[at],
            )
            for b in np.flatnonzero(~solved):
                vals, vecs = solve(first + b, _occupied_levels, 0.0)
                energies[b], vectors[b] = vals[0], vecs[:, 0]
            yield first, StateStack(
                diag[at], off, energies[:, None],
                _select_sign(vectors[:, None, :]), np.ones((energies.size, 1)),
            )
        return
    first, levels = 0, []

    def stack(stop: int) -> StateStack:
        energies = np.array([vals for vals, _ in levels])
        vectors = _select_sign(np.array([vecs.T for _, vecs in levels]))
        return StateStack(
            diag[first:stop], off, energies, vectors,
            _boltzmann(energies, temperature),
        )

    for b in range(lambdas.size):
        vals, vecs = solve(b, _occupied_levels, temperature)
        if levels and (
            vals.size != levels[0][0].size
            or (len(levels) + 1) * vecs.size > STACK_ENTRIES
        ):
            yield first, stack(b)
            first, levels = b, []
        levels.append((vals, vecs))
    if levels:
        yield first, stack(lambdas.size)


def eigenvalues(params: ModelParams, lambdas, n_levels: int) -> np.ndarray:
    """Lowest ``n_levels`` eigenvalues of H at each of ``lambdas``, ascending.

    N and delta come from ``params``; its own lambda is not read.
    Returns a (B, n_levels) array, in units of Omega.  All N + 1 levels
    come from one divide and conquer solve per point, fewer from bisection.

    Raises
    ------
    ValueError
        Unless n_levels is an integer with 1 <= n_levels <= N + 1, or when
        an entry of H overflows.
    """
    if not isinstance(n_levels, Integral) or isinstance(n_levels, bool):
        raise ValueError(f"n_levels must be an integer, got {n_levels!r}")
    dim = params.dimension
    if not 1 <= n_levels <= dim:
        raise ValueError(f"n_levels must be in [1, {dim}], got {n_levels}")
    lambdas = np.atleast_1d(np.asarray(lambdas, dtype=float))
    diag, off = _diagonals(params, lambdas)
    return np.array([_eigh(d, off, False, n_levels) for d in diag])


def _parity_levels(
    n_particles: int, lambdas, levels: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Untilted levels E_k and slopes dE_k/dlambda = <k|V|k> from parity blocks.

    At delta = 0, H commutes with the mirror m -> -m and splits into blocks
    on (|m> +- |-m>) / sqrt(2), m > 0.  Even N: |0> joins the even block
    through sqrt(2) t_0.  Odd N: +-t_(-1/2) goes on the first diagonal
    entry, + for the even block (t_m the J_x element between m and m + 1).
    H is an irreducible persymmetric Jacobi matrix, so level k is level
    k // 2 of the block of parity (-1)**k.  V = J_z**2 / N (Hellmann-Feynman).
    Returns (B, len(levels)) arrays of E_k and dE_k/dlambda at ``lambdas``.
    """
    lambdas = np.atleast_1d(np.asarray(lambdas, dtype=float))
    diag, off = _diagonals(ModelParams(n_particles), lambdas)
    c = (n_particles + 1) // 2  # index of m = 0 (even N) or m = 1/2 (odd N)
    m = _spin(n_particles)[0][c:]
    energies = np.empty((lambdas.size, len(levels)))
    slopes = np.empty_like(energies)
    for parity in {k % 2 for k in levels}:
        cols = [i for i, k in enumerate(levels) if k % 2 == parity]
        d, e, v = diag[:, c:].copy(), off[c:].copy(), m * m / n_particles
        if n_particles % 2:
            d[:, 0] += (-1) ** parity * off[c - 1]
        elif parity == 0:
            e[0] *= math.sqrt(2.0)
        else:
            d, e, v = d[:, 1:], e[1:], v[1:]
        index = [levels[i] // 2 for i in cols]
        for b in range(lambdas.size):
            w, vecs = _eigh(d[b], e, True, n_levels=max(index) + 1)
            energies[b, cols] = w[index]
            slopes[b, cols] = v @ vecs[:, index] ** 2
    return energies, slopes
