"""Pseudo-spectral toolbox on a periodic box.

Scalar fields live on a uniform N^3 grid over [0, L)^3 and are transformed
with real-input FFTs.  The "forward" normalization is used throughout, so a
constant field c has spectral coefficient c at wavenumber zero and Parseval
reads ||f||_{L^2}^2 = L^3 * sum_k mult(k) |f_hat(k)|^2 where mult accounts
for the half-spectrum storage of real transforms.

Derivatives are diagonal multipliers i*xi.  The Nyquist wavenumber carries
no sign information for real data, so it is zeroed in every derivative
multiplier, including the Laplacian symbol; as a consequence div(grad(f))
equals laplacian(f) and curl(grad(f)) vanishes exactly on the grid.

The two-thirds dealias band is a dense sub-lattice (GridSpec.two_thirds,
a SpectralBand) with the same operators and L^2 norm, for work whose result
is projected onto the band anyway; embed(take(fh)) is the projection itself.

The transforms are numpy's one-axis pocketfft passes, taken in the order and
scaled at the point where scipy's rfftn/irfftn(norm="forward") did it, so
they give those transforms' bits; no subcommand loads scipy.  A batch is
transformed one 3-D field at a time, with the complex passes in place: on a
whole batch numpy's pass over the first grid axis walks memory in a
cache-missing order, several times slower than the same pass per field.
"""
from __future__ import annotations

import contextlib
import contextvars
import functools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

__all__ = ["GridSpec", "SpectralBand", "fft_workers", "multi_indices"]


_POOL = contextvars.ContextVar("fft_pool", default=None)  # the pool fft_workers sets


@contextlib.contextmanager
def fft_workers(threads: int) -> Iterator[None]:
    """Context in which the fields of a batched grid transform are tasks on
    `threads` worker threads, each field's passes run whole and in place;
    pocketfft releases the GIL and a field's bits do not depend on its batch.
    One thread makes plain calls, no pool."""
    with contextlib.ExitStack() as stack:
        if threads > 1:
            from concurrent.futures import ThreadPoolExecutor

            pool = stack.enter_context(ThreadPoolExecutor(threads))
            stack.callback(_POOL.reset, _POOL.set(pool))
        yield


def _per_field(fn, *arrays: np.ndarray) -> None:
    """fn(*fields) for every (n, n, .) field of arrays that share their leading
    axes, each call a task of the fft_workers pool when one is set."""
    index = list(np.ndindex(arrays[0].shape[:-3]))
    task = lambda i: fn(*(a[i] for a in arrays))
    pool = _POOL.get()
    if pool is None or len(index) < 2:
        for i in index:
            task(i)
    else:
        list(pool.map(task, index))  # reads each result: errors raise


@functools.lru_cache(maxsize=None)
def multi_indices(order: int) -> tuple[tuple[int, int, int], ...]:
    """All 3D multi-indices alpha with |alpha| <= order, graded lexicographic."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    out = []
    for total in range(order + 1):
        for a1 in range(total, -1, -1):
            for a2 in range(total - a1, -1, -1):
                out.append((a1, a2, total - a1 - a2))
    return tuple(out)


class _SpectralLayout:
    """Derivative multipliers i*xi and the L^2 inner product on a spectral layout.

    Subclasses provide k, the wavenumbers of shape (3, ...), k_sq, their
    squared magnitudes, mult (see GridSpec.mult) and box; coefficient
    arrays have the layout's trailing shape.
    """

    @functools.cached_property
    def ik(self) -> np.ndarray:
        """The complex multipliers i*k, built once per layout."""
        return 1j * self.k

    def grad(self, fh: np.ndarray) -> np.ndarray:
        """Gradient of a scalar: (...) -> (3, ...)."""
        return self.ik * fh

    def div(self, vh: np.ndarray) -> np.ndarray:
        """Divergence of a vector: (3, ...) -> (...)."""
        ik = self.ik
        return ik[0] * vh[0] + ik[1] * vh[1] + ik[2] * vh[2]

    def curl(self, vh: np.ndarray) -> np.ndarray:
        """Curl of a vector, (3, ...) -> same shape."""
        ik1, ik2, ik3 = self.ik
        out = np.empty(vh.shape, dtype=complex)
        out[0] = ik2 * vh[2] - ik3 * vh[1]
        out[1] = ik3 * vh[0] - ik1 * vh[2]
        out[2] = ik1 * vh[1] - ik2 * vh[0]
        return out

    def laplacian(self, fh: np.ndarray) -> np.ndarray:
        """Laplacian multiplier; broadcasts over leading axes."""
        return -self.k_sq * fh

    def longitudinal(self, src_hat: np.ndarray) -> np.ndarray:
        """Curl-free field with divergence src: -i k src / |k|^2.

        Modes whose derivative symbol vanishes (zero and pure-Nyquist) carry
        no longitudinal direction and are left empty.
        """
        coef = np.zeros_like(src_hat)
        np.divide(src_hat, self.k_sq, out=coef, where=self.k_sq > 0.0)
        return -(self.ik * coef)

    def spectral_inner(self, ah: np.ndarray, bh: np.ndarray, w: np.ndarray | None = None) -> float:
        """<w a, b>_{L^2} by Parseval, L^3 sum w mult Re(conj(ah) bh), summed over leading
        axes too; w is an optional real multiplier, e.g. sobolev_multiplier(m)."""
        # a norm takes re^2 + im^2, with no complex temporary
        density = ah.real**2 + ah.imag**2 if bh is ah else (ah.conj() * bh).real
        w = self.mult if w is None else w * self.mult
        return float(self.box**3 * np.sum(w * density))

    def spectral_l2_sq(self, fh: np.ndarray, w: np.ndarray | None = None) -> float:
        """||f||^2 from coefficients, weighted like spectral_inner."""
        return self.spectral_inner(fh, fh, w)


@dataclass(frozen=True)
class GridSpec(_SpectralLayout):
    """Uniform periodic grid: N points per axis on a box of side L.

    N must be even and at least 8 so the real FFT layout and the dealias
    band are well defined; L must be positive and finite.
    """

    n: int = 48
    box: float = 40.0

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)):
            raise ValueError(f"grid size n must be an integer, got {self.n!r}")
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"grid size n must be even and >= 8, got {self.n}")
        if not 0.0 < float(self.box) < np.inf:
            raise ValueError(f"box side must be positive and finite, got {self.box}")

    # ---- geometry ----------------------------------------------------

    @property
    def dx(self) -> float:
        return self.box / self.n

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n, self.n, self.n)

    @property
    def spectral_shape(self) -> tuple[int, int, int]:
        return (self.n, self.n, self.n // 2 + 1)

    @functools.cached_property
    def x1d(self) -> np.ndarray:
        return self.dx * np.arange(self.n)

    @functools.cached_property
    def radius(self) -> np.ndarray:
        """Euclidean distance from the box center, shape (n, n, n)."""
        r = self.x1d - 0.5 * self.box
        return np.sqrt(
            r[:, None, None] ** 2 + r[None, :, None] ** 2 + r[None, None, :] ** 2
        )

    # ---- wavenumbers ---------------------------------------------------

    @functools.cached_property
    def _k1d(self) -> tuple[np.ndarray, np.ndarray]:
        """(full-axis, half-axis) wavenumbers with the Nyquist entry zeroed."""
        kfull = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)
        kfull[self.n // 2] = 0.0
        khalf = 2.0 * np.pi * np.fft.rfftfreq(self.n, d=self.dx)
        khalf[-1] = 0.0
        return kfull, khalf

    @functools.cached_property
    def k(self) -> np.ndarray:
        """Derivative wavenumbers, shape (3, n, n, n//2+1), Nyquist zeroed."""
        kfull, khalf = self._k1d
        out = np.zeros((3,) + self.spectral_shape)
        out[0] = kfull[:, None, None]
        out[1] = kfull[None, :, None]
        out[2] = khalf[None, None, :]
        return out

    @functools.cached_property
    def k_sq(self) -> np.ndarray:
        """|xi|^2 with Nyquist-zeroed components; -k_sq is the Laplacian symbol."""
        return (self.k**2).sum(axis=0)

    @functools.cached_property
    def mult(self) -> np.ndarray:
        """Multiplicity of each stored rfft mode in the full spectrum (1 or 2)."""
        w = np.full(self.spectral_shape, 2.0)
        w[..., 0] = 1.0
        w[..., -1] = 1.0
        return w

    @functools.cached_property
    def two_thirds(self) -> "SpectralBand":
        """The two-thirds dealias band, |integer index| <= n // 3 on every axis,
        as a dense sub-lattice; embed(take(fh)) is the dealiasing projection."""
        return SpectralBand(self, self.n // 3)

    # ---- transforms ----------------------------------------------------

    def _require(self, arr: np.ndarray, trailing: tuple[int, ...], what: str) -> None:
        """Raise ValueError, naming n, unless arr's last three axes are trailing."""
        if np.shape(arr)[-3:] != trailing:
            raise ValueError(
                f"{what} needs trailing shape {trailing} on the n = {self.n} grid, "
                f"got an array of shape {np.shape(arr)}"
            )

    def _forward(self, x: np.ndarray, g: np.ndarray) -> None:
        """One real field's coefficients, written into g."""
        np.fft.rfft(x, axis=-1, out=g)
        g_re = g.view(np.float64)  # scipy's one norm="forward" factor, after the real pass
        g_re *= 1.0 / self.n**3
        np.fft.fft(g, axis=-3, out=g)
        np.fft.fft(g, axis=-2, out=g)

    def transform(self, f: np.ndarray, band: SpectralBand | None = None) -> np.ndarray:
        """Real field(s) -> spectral coefficients over the last three axes.

        With band, a SpectralBand of this grid, only the band's entries are
        returned, band.take's values: each field goes through one work array
        of the full layout, so no full-layout batch is held.
        """
        self._require(f, self.shape, "transform")
        if band is None:
            out = np.empty(f.shape[:-3] + self.spectral_shape, dtype=complex)
            _per_field(self._forward, f, out)
            return out
        if (band.spectral_shape, band.box) != (self.spectral_shape, self.box):
            raise ValueError(
                f"transform needs a band of the n = {self.n}, box = {self.box} grid, "
                f"got one of a grid with spectral shape {band.spectral_shape}, box = {band.box}"
            )
        out = np.empty(f.shape[:-3] + band.k_sq.shape, dtype=complex)

        def field(x: np.ndarray, b: np.ndarray) -> None:
            g = np.empty(self.spectral_shape, dtype=complex)
            self._forward(x, g)
            b[...] = g[band.index]

        _per_field(field, f, out)
        return out

    def inverse(self, fh: np.ndarray) -> np.ndarray:
        """Spectral coefficients -> real field(s) over the last three axes."""
        self._require(fh, self.spectral_shape, "inverse")
        out = np.empty(fh.shape[:-3] + self.shape)

        def field(c: np.ndarray, x: np.ndarray) -> None:
            g = np.array(c, dtype=complex)  # the passes below overwrite it, not fh
            np.fft.ifft(g, axis=-3, norm="forward", out=g)
            np.fft.ifft(g, axis=-2, norm="forward", out=g)
            np.fft.irfft(g, n=self.n, axis=-1, norm="forward", out=x)

        _per_field(field, fh, out)
        return out

    def derivative_square_sum(self, fh: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Pointwise sum_{|alpha| <= m} (d^alpha f)^2 per field, and f^2.

        fh holds rfft coefficients with any leading axes; both results are
        real arrays of shape fh.shape[:-3] + (n, n, n).  The symbol of
        d^alpha factors as (i k1)^a1 (i k2)^a2 (i k3)^a3 (Nyquist entries
        zeroed), so the inverse is taken one axis at a time and each partial
        pass is shared by every alpha that extends it (sum factorization):
        an ifft over axis -3 per a1, over axis -2 per (a1, a2), and an irfft
        over axis -1 per alpha.
        """
        if m < 0:
            raise ValueError(f"derivative order must be >= 0, got {m}")
        self._require(fh, self.spectral_shape, "derivative_square_sum")
        # the full-shape rows of the cached i k: a broadcast in-place
        # multiply would allocate an iterator buffer of its own, live with f
        ik1, ik2, ik3 = self.ik
        total = np.zeros(fh.shape[:-3] + self.shape)
        zero = np.empty_like(total)

        def field(c: np.ndarray, total: np.ndarray, zero: np.ndarray) -> None:
            g1 = np.array(c, dtype=complex)  # multiplied in place below
            g2, g3 = np.empty_like(g1), np.empty_like(g1)
            f = np.empty(self.shape)  # every alpha but 0; alpha = 0 lands in zero
            for a1 in range(m + 1):
                if a1:
                    g1 *= ik1
                np.fft.ifft(g1, axis=-3, norm="forward", out=g2)
                for a2 in range(m - a1 + 1):
                    if a2:
                        g2 *= ik2
                    np.fft.ifft(g2, axis=-2, norm="forward", out=g3)
                    for a3 in range(m - a1 - a2 + 1):
                        if a3:
                            g3 *= ik3
                        x = f if a1 + a2 + a3 else zero
                        np.fft.irfft(g3, n=self.n, axis=-1, norm="forward", out=x)
                        x *= x
                        total += x

        _per_field(field, fh, total, zero)
        return total, zero

    # ---- differential operators (spectral in, spectral out) -------------
    # grad, div, curl, laplacian and longitudinal come from _SpectralLayout

    # ---- integrals and norms --------------------------------------------

    def integral(self, f: np.ndarray) -> float:
        """Integral of a real grid field over the box (exact for band-limited f)."""
        return float(f.sum(axis=(-3, -2, -1)) * self.dx**3)

    def l2_norm(self, f: np.ndarray) -> float:
        return float(np.sqrt(np.sum(f * f) * self.dx**3))

    @functools.cached_property
    def _sobolev_multipliers(self) -> dict[int, np.ndarray]:
        return {}  # sobolev_multiplier's results by order, kept with the grid

    def sobolev_multiplier(self, m: int) -> np.ndarray:
        """W_m(xi) = sum_{|alpha| <= m} xi^{2 alpha}, on the rfft layout."""
        w = self._sobolev_multipliers.get(m)
        if w is None:
            kfull, khalf = self._k1d
            w = np.zeros(self.spectral_shape)
            for a1, a2, a3 in multi_indices(m):  # raises ValueError for m < 0
                w += (
                    kfull[:, None, None] ** (2 * a1)
                    * kfull[None, :, None] ** (2 * a2)
                    * khalf[None, None, :] ** (2 * a3)
                )
            self._sobolev_multipliers[m] = w
        return w

    def sobolev_norm(self, f: np.ndarray, m: int) -> float:
        """(sum_{|alpha| <= m} ||d^alpha f||_{L^2}^2)^{1/2} for a real field;
        leading axes are summed over, so a vector field gets its total norm."""
        return float(np.sqrt(self.spectral_l2_sq(self.transform(f), self.sobolev_multiplier(m))))


class SpectralBand(_SpectralLayout):
    """The rfft modes of a grid with every |integer index| <= band, gathered
    into a dense sub-lattice of shape (2 band + 1, 2 band + 1, band + 1).

    take() restricts coefficient arrays to it, embed() returns them to the
    full layout with zeros elsewhere, and the derivative operators act on
    restricted arrays directly, so work whose result is projected onto the
    band anyway (a dealiased tendency) touches only these modes.  Values on
    the band are the ones the full-layout operators give there.
    """

    def __init__(self, grid: GridSpec, band: int) -> None:
        index = np.abs(np.rint(np.fft.fftfreq(grid.n, d=1.0 / grid.n)).astype(int))
        full = np.flatnonzero(index <= band)
        half = np.flatnonzero(np.arange(grid.n // 2 + 1) <= band)
        self.index = np.ix_(full, full, half)
        self.spectral_shape = grid.spectral_shape
        self.k = grid.k[(slice(None),) + self.index]
        self.k_sq = grid.k_sq[self.index]
        self.mult = grid.mult[self.index]
        self.box = grid.box

    def take(self, fh: np.ndarray) -> np.ndarray:
        """Restrict coefficients (any leading axes) to the band."""
        return fh[(Ellipsis,) + self.index]

    def embed(self, fb: np.ndarray) -> np.ndarray:
        """Band coefficients -> full layout, zero off the band."""
        out = np.zeros(fb.shape[:-3] + self.spectral_shape, dtype=complex)
        out[(Ellipsis,) + self.index] = fb
        return out
