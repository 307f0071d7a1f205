"""Gram-aware linear algebra helpers.

All norms and adjoints in this package are taken against explicit Gram
matrices (the level inner products are not orthonormal in the coordinate
basis).  Norms and spectral floors are generalized eigenvalues of a
Hermitian pencil (a, b), and every such pencil is reduced in numpy the way
LAPACK's ``hegv`` reduces it: with b = L L^H, the eigenvalues are those of
L^-1 a L^-H.  ``scipy.linalg.eigh`` stays in the tests as the oracle.  The
amplified-norm scan in the multipliers layer uses the Cholesky factor
directly: it whitens its realization stack by the factor of the full Gram
form once per space (``op_norm`` is the oracle).  The build-time positivity
check needs no pencil at all: the level pencil (G_U^(n) P(n), G_U^(n)) has
the spectrum of P(n), which the fock layer reads off P(n)'s small orbit
blocks; ``min_gen_eig`` on the level-sized pencil stays in the tests as its
oracle.  Helpers accept float/complex arrays and, where meaningful, object
arrays with exact Fraction entries.

Every one-particle map acts on a level leg by leg, so ``legwise`` applies
its n-th tensor power as n batched (d x d) products instead of forming the
d^n x d^n Kronecker power; ``kron_power`` builds the dense power only where
a dense matrix is the output, and is ``legwise``'s oracle in the tests.
``kron_columns`` builds any columns of a power, so a check can walk a level
matrix a run of columns at a time (``column_slabs``) and equal its one-shot
form bit for bit.

numpy is the only linear-algebra stack of a run, and ``pin_blas_threads``
runs its OpenBLAS on one thread: the matrices here have at most a few
hundred rows, where a thread pool costs more than it saves.  The pin keeps
the digits; a library caller that also sets ``OPENBLAS_NUM_THREADS=1``
before importing numpy, as the command entry does, spares the busy-waiting
worker OpenBLAS otherwise starts at load (~0.1 s of CPU on two CPUs).
``blas_config`` reads the build string of that OpenBLAS for the manifest.
"""

from __future__ import annotations

import ctypes

import numpy as np

# columns per run when a level matrix is walked a run at a time (``column_slabs``)
SLAB_COLUMNS = 64

# (setter, getter) pairs of the OpenBLAS thread controls, by build flavour:
# the copies bundled with numpy 2 (64-bit, then 32-bit integers), the one
# bundled with numpy 1, then an unsuffixed system OpenBLAS
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)
# the build-configuration string of the same flavours, in the same order
_OPENBLAS_CONFIG_SYMBOLS = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)


def _numpy_blas() -> ctypes.CDLL:
    # numpy's linalg extension: its symbol search covers the OpenBLAS it links
    return ctypes.CDLL(np.linalg._umath_linalg.__file__)


def pin_blas_threads() -> int | None:
    """Run numpy's OpenBLAS on one thread; return the count read back.

    The thread controls are looked up through numpy's linalg extension.
    Builds on another BLAS (MKL, Accelerate) expose none of them: nothing
    is changed and None is returned.
    """
    lib = _numpy_blas()
    for setter, getter in _OPENBLAS_THREAD_SYMBOLS:
        try:
            set_threads, get_threads = getattr(lib, setter), getattr(lib, getter)
        except AttributeError:
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads(1)
        return get_threads()
    return None


def blas_config() -> str | None:
    """Build configuration of numpy's OpenBLAS (version, kernel, integer
    width), looked up as ``pin_blas_threads`` looks up its controls; None
    on builds with another BLAS."""
    lib = _numpy_blas()
    for name in _OPENBLAS_CONFIG_SYMBOLS:
        get_config = getattr(lib, name, None)
        if get_config is not None:
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            return get_config().decode()
    return None


def column_slabs(size: int) -> list:
    """Slices cutting ``size`` columns into runs of ``SLAB_COLUMNS``; the
    last run keeps the remainder, and a one-column remainder joins the run
    before it.  OpenBLAS computes the last N mod U columns of an N-column
    product in an edge kernel, U a divisor of 64, and a single column takes
    the matrix-vector route; so every column of a run meets the kernel it
    meets in the whole product, and a product taken run by run equals the
    whole one bit for bit."""
    bounds = list(range(0, size, SLAB_COLUMNS)) + [size]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def kron_power(m: np.ndarray, n: int) -> np.ndarray:
    """n-fold Kronecker power of ``m``; n = 0 gives the 1x1 identity."""
    return kron_columns(m, n, slice(None))


def kron_columns(m: np.ndarray, n: int, cols) -> np.ndarray:
    """The columns ``cols`` (a slice or index array over the words of n
    letters) of the n-fold Kronecker power of ``m``, the one builder of
    tensor powers.  Leg k multiplies every column by the column of ``m`` at
    the column word's k-th letter, left to right as a chain of ``np.kron``
    products would, and numpy's elementwise product does not depend on the
    layout, so any columns equal those of the whole power bit for bit."""
    d = m.shape[1]
    words = np.arange(d**n)[cols]
    out = np.ones((1, len(words)), dtype=m.dtype)
    for k in range(n):
        letters = words // d ** (n - 1 - k) % d
        out = (out[:, None, :] * m[:, letters]).reshape(-1, len(words))
    return out


def legwise(m: np.ndarray, n: int, x) -> np.ndarray:
    """The product of ``kron_power(m, n)`` with ``x``, without forming the power.

    The rows of ``x`` are indexed by words of n letters; ``m`` (d x d) acts
    on every leg.  Leg k is one batched product over the whole array: with
    the rows split as (letters before k, letter k, letters after k and the
    columns of x), each of the d^k slices is a (d x d) by (d x rest)
    product, written in place of the letter it consumed, so no transpose
    is needed.  Exact on Fraction arrays.
    """
    x = np.asarray(x)
    if n == 0:
        return x.astype(np.result_type(m.dtype, x.dtype))
    d, out = m.shape[1], x
    for k in range(n):
        out = np.matmul(m, out.reshape(d**k, d, -1))
    return out.reshape(x.shape)


def identity_matrix(n: int, exact: bool = False) -> np.ndarray:
    """Identity matrix; in exact mode an object array of Fractions."""
    if not exact:
        return np.eye(n, dtype=complex)
    from fractions import Fraction

    out = np.full((n, n), Fraction(0), dtype=object)
    for i in range(n):
        out[i, i] = Fraction(1)
    return out


def hermitize(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def to_float(m: np.ndarray) -> np.ndarray:
    """Convert an exact object array to complex floats (no-op otherwise)."""
    if m.dtype == object:
        return np.asarray(m, dtype=complex)
    return m


def gram_inner(u: np.ndarray, v: np.ndarray, gram: np.ndarray):
    """Inner product <u, v> against ``gram``; linear in the second slot."""
    return np.conj(u).dot(gram).dot(v)


def _gen_eigvals(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian pencil (a, b), b positive
    definite: with b = L L^H, those of L^-1 a L^-H.

    Raises ``np.linalg.LinAlgError`` when b is not positive definite.
    """
    lower = np.linalg.cholesky(b)
    half = np.linalg.solve(lower, a)
    return np.linalg.eigvalsh(hermitize(np.linalg.solve(lower, half.conj().T)))


def min_gen_eig(m: np.ndarray, gram: np.ndarray) -> float:
    """Smallest eigenvalue of ``m`` seen as an operator in the ``gram`` geometry."""
    a = hermitize(to_float(m))
    b = hermitize(to_float(gram))
    return float(_gen_eigvals(a, b)[0])


def op_norm(x: np.ndarray, gram_out: np.ndarray, gram_in: np.ndarray) -> float:
    """Operator norm of ``x`` between Gram geometries, via the pencil
    (x* G_out x, G_in)."""
    xf = to_float(x)
    a = hermitize(xf.conj().T.dot(to_float(gram_out)).dot(xf))
    b = hermitize(to_float(gram_in))
    vals = _gen_eigvals(a, b)
    return float(np.sqrt(max(vals[-1], 0.0)))


def block_diag(blocks) -> np.ndarray:
    """Block-diagonal matrix of the 2-D blocks in order, zeros elsewhere,
    in the promoted dtype of the blocks (object zeros are the integer 0)."""
    blocks = [np.atleast_2d(b) for b in blocks]
    shape = np.sum([b.shape for b in blocks], axis=0)
    out = np.zeros(shape, dtype=np.result_type(*(b.dtype for b in blocks)))
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def max_abs(m) -> float:
    arr = to_float(np.asarray(m))
    if arr.size == 0:
        return 0.0
    return float(np.max(np.abs(arr)))
