"""Spectral grid core: transforms, operators, norms, dealiasing."""
import gc
import itertools
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as scipy_fft

from emlab.grid import GridSpec, SpectralBand, fft_workers, multi_indices

from _helpers import band_mask, dealias, random_field


def project(g, fh):
    """The package's two-thirds projection, through the band sub-lattice."""
    band = g.two_thirds
    return band.embed(band.take(fh))


class TestGridSpecValidation:
    def test_odd_n_rejected(self):
        with pytest.raises(ValueError, match="even"):
            GridSpec(n=9)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match=">= 8"):
            GridSpec(n=6)

    def test_nonpositive_box_rejected(self):
        for box in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                GridSpec(n=16, box=box)

    def test_defaults(self):
        g = GridSpec()
        assert g.n == 48
        assert g.box == 40.0


class TestTransforms:
    def test_round_trip(self):
        g = GridSpec(n=16, box=7.0)
        f = random_field(g, seed=1)
        assert np.abs(g.inverse(g.transform(f)) - f).max() < 1e-12

    def test_constant_has_constant_coefficient(self):
        g = GridSpec(n=16, box=5.0)
        fh = g.transform(np.full(g.shape, 3.25))
        assert fh[0, 0, 0] == pytest.approx(3.25, abs=1e-14)
        assert np.abs(fh).sum() == pytest.approx(3.25, abs=1e-12)

    def test_parseval(self):
        g = GridSpec(n=16, box=11.0)
        f = random_field(g, seed=2)
        a = g.l2_norm(f) ** 2
        b = g.spectral_l2_sq(g.transform(f))
        assert abs(a - b) / a < 1e-12

    # a grid field where coefficients belong, or the reverse, or a half axis
    # off by one, used to pass silently or end in numpy's unnamed shape error
    @pytest.mark.parametrize("name,shape,want", [
        ("transform", (16, 16, 9), (16, 16, 16)),
        ("transform", (2, 16, 16, 8), (16, 16, 16)),
        ("transform", (16, 16), (16, 16, 16)),
        ("inverse", (16, 16, 16), (16, 16, 9)),
        ("inverse", (16, 16, 8), (16, 16, 9)),
        ("inverse", (3, 16, 8, 9), (16, 16, 9)),
        ("derivative_square_sum", (16, 16, 16), (16, 16, 9)),
        ("derivative_square_sum", (2, 16, 16, 10), (16, 16, 9)),
    ])
    def test_wrong_trailing_shape_is_named(self, name, shape, want):
        g = GridSpec(n=16, box=10.0)
        args = (2,) if name == "derivative_square_sum" else ()
        with pytest.raises(ValueError, match=rf"{name} needs trailing shape {re.escape(str(want))} "
                                             rf"on the n = 16 grid, got .*{re.escape(str(shape))}"):
            getattr(g, name)(np.ones(shape), *args)

    @pytest.mark.parametrize("other", [GridSpec(n=18, box=10.0), GridSpec(n=16, box=12.0)])
    def test_band_of_another_grid_is_refused(self, other):
        g = GridSpec(n=16, box=10.0)
        with pytest.raises(ValueError, match="band of the n = 16, box = 10.0 grid"):
            g.transform(np.ones(g.shape), other.two_thirds)


class TestOperators:
    def test_gradient_adjointness(self):
        # <d1 f, g> = -<f, d1 g> for periodic fields
        g = GridSpec(n=16, box=9.0)
        f = random_field(g, seed=3)
        h = random_field(g, seed=4)
        f /= g.l2_norm(f)
        h /= g.l2_norm(h)
        d1f = g.inverse(g.grad(g.transform(f))[0])
        d1h = g.inverse(g.grad(g.transform(h))[0])
        assert abs(g.integral(d1f * h) + g.integral(f * d1h)) < 1e-10

    def test_laplacian_is_div_grad(self):
        g = GridSpec(n=16, box=9.0)
        fh = g.transform(random_field(g, seed=5))
        assert np.abs(g.laplacian(fh) - g.div(g.grad(fh))).max() < 1e-15

    def test_curl_of_gradient_vanishes(self):
        g = GridSpec(n=16, box=9.0)
        fh = g.transform(random_field(g, seed=6))
        assert np.abs(g.curl(g.grad(fh))).max() < 1e-14

    def test_div_of_curl_vanishes(self):
        g = GridSpec(n=16, box=9.0)
        vh = np.stack([g.transform(random_field(g, seed=s)) for s in (7, 8, 9)])
        assert np.abs(g.div(g.curl(vh))).max() < 1e-12

    def test_longitudinal_field_solves_divergence(self):
        g = GridSpec(n=12, box=7.0)
        src = g.transform(random_field(g, seed=17))
        e = g.longitudinal(src)
        live = g.k_sq > 0.0
        assert np.abs(g.div(e) - src)[live].max() <= 1e-12 * np.abs(src).max()
        assert np.abs(g.curl(e)).max() <= 1e-12 * np.abs(e).max()
        assert np.abs(e[:, ~live]).max() == 0.0

    def test_nyquist_mode_has_zero_derivative(self):
        g = GridSpec(n=16, box=4.0)
        # the alternating-sign mode along each axis is the Nyquist mode
        sign = (-1.0) ** np.arange(g.n)
        for axis in range(3):
            shp = [1, 1, 1]
            shp[axis] = g.n
            f = np.broadcast_to(sign.reshape(shp), g.shape).copy()
            df = g.inverse(g.grad(g.transform(f)))
            assert np.abs(df).max() < 1e-13
            lf = g.inverse(g.laplacian(g.transform(f)))
            assert np.abs(lf).max() < 1e-13

    def test_sine_derivative_exact(self):
        g = GridSpec(n=16, box=5.0)
        kx = 2 * np.pi / g.box
        f = np.sin(kx * g.x1d)[:, None, None] * np.ones(g.shape)
        df = g.inverse(g.grad(g.transform(f))[0])
        expect = kx * np.cos(kx * g.x1d)[:, None, None] * np.ones(g.shape)
        assert np.abs(df - expect).max() < 1e-12

    def test_mixed_derivative_multiplier(self):
        g = GridSpec(n=16, box=9.0)
        fh = g.transform(random_field(g, seed=10))
        # the order-2 terms of the square sum are the chained partials
        # d_i d_j, one per multi-index (i <= j), mixed ones included
        second = g.derivative_square_sum(fh, 2)[0] - g.derivative_square_sum(fh, 1)[0]
        grad = g.grad(fh)
        chained = sum(
            g.inverse(g.grad(grad[j])[i]) ** 2 for i in range(3) for j in range(i, 3)
        )
        assert np.abs(second - chained).max() < 1e-13 * chained.max()


class TestDerivativeSquareSum:
    @given(
        n=st.sampled_from([8, 10, 12, 16]),
        m=st.integers(0, 5),
        lead=st.sampled_from([(), (1,), (4,), (2, 3)]),
        box=st.sampled_from([3.0, 9.0, 40.0]),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_alpha_full_inverses(self, n, m, lead, box, seed):
        # full-spectrum input: Nyquist planes and non-Hermitian edges included
        g = GridSpec(n=n, box=box)
        rng = np.random.default_rng(seed)
        shape = lead + g.spectral_shape
        fh = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        total, zero = g.derivative_square_sum(fh, m)
        ref = np.zeros(lead + g.shape)
        for a1, a2, a3 in multi_indices(m):
            sym = (1j * g.k[0]) ** a1 * (1j * g.k[1]) ** a2 * (1j * g.k[2]) ** a3
            d = g.inverse(sym * fh)
            ref += d * d
        f0_sq = g.inverse(fh) ** 2
        assert total.shape == zero.shape == ref.shape
        assert np.abs(total - ref).max() <= 1e-13 * ref.max()
        assert np.abs(zero - f0_sq).max() <= 1e-13 * f0_sq.max()

    def test_negative_order_rejected(self):
        g = GridSpec(n=8)
        with pytest.raises(ValueError, match="order"):
            g.derivative_square_sum(np.zeros(g.spectral_shape, complex), -1)


def scipy_derivative_square_sum(g, fh, m):
    """derivative_square_sum's sum factorization on scipy's one-axis passes."""
    kfull, khalf = g._k1d
    total, zero = np.zeros(fh.shape[:-3] + g.shape), None
    g1 = np.array(fh, dtype=complex)
    for a1 in range(m + 1):
        if a1:
            g1 *= (1j * kfull)[:, None, None]
        g2 = scipy_fft.ifft(g1, axis=-3, norm="forward")
        for a2 in range(m - a1 + 1):
            if a2:
                g2 *= (1j * kfull)[:, None]
            g3 = scipy_fft.ifft(g2, axis=-2, norm="forward")
            for a3 in range(m - a1 - a2 + 1):
                if a3:
                    g3 *= 1j * khalf
                f = scipy_fft.irfft(g3, n=g.n, axis=-1, norm="forward") ** 2
                total += f
                zero = f if zero is None else zero
    return total, zero


class TestScipyBits:
    """The transforms give the bits of scipy.fft's, which they replaced."""

    # every even size to 48, and 94 = 2 x 47, whose prime factor pocketfft
    # takes by Bluestein's algorithm
    @pytest.mark.parametrize("n", list(range(8, 50, 2)) + [94])
    def test_transforms_and_derivative_sums_equal_scipy(self, n):
        g = GridSpec(n=n, box=7.0)
        rng = np.random.default_rng(n)
        f = rng.standard_normal((2,) + g.shape)
        fh = g.transform(f)
        axes = (-3, -2, -1)
        assert np.array_equal(fh, scipy_fft.rfftn(f, axes=axes, norm="forward"))
        assert np.array_equal(g.transform(f[1]), fh[1])
        ref = scipy_fft.irfftn(fh, s=g.shape, axes=axes, norm="forward")
        assert np.array_equal(g.inverse(fh), ref)
        got = g.derivative_square_sum(fh[0], 5)
        for a, b in zip(got, scipy_derivative_square_sum(g, fh[0], 5)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [16, 18, 22, 32, 48])
    def test_worker_threads_give_the_serial_bits(self, n):
        g = GridSpec(n=n, box=7.0)
        rng = np.random.default_rng(n)
        f = rng.standard_normal((5,) + g.shape)
        fh = g.transform(f)
        serial = (fh, g.inverse(fh), *g.derivative_square_sum(fh[:3], 2))
        with fft_workers(3):
            threaded = (g.transform(f), g.inverse(fh), *g.derivative_square_sum(fh[:3], 2))
        for a, b in zip(serial, threaded):
            assert np.array_equal(a, b)
        # the RHS's 11-field inverse, and two leading axes, which are flattened into
        # one list of fields: each field of a batch gets its single-field bits
        for lead in [(2, 3)] + [(11,)] * (n == 48):
            f = rng.standard_normal(lead + g.shape)
            fh = g.transform(f)
            batch = (fh, g.inverse(fh), *g.derivative_square_sum(fh, 1))
            with fft_workers(2):
                threaded = (g.transform(f), g.inverse(fh), *g.derivative_square_sum(fh, 1))
            for i in np.ndindex(lead):
                single = (g.transform(f[i]), g.inverse(fh[i]), *g.derivative_square_sum(fh[i], 1))
                for a, b, c in zip(batch, threaded, single):
                    assert np.array_equal(a[i], c) and np.array_equal(b[i], c)


class TestFieldPasses:
    """Every numpy FFT call of a grid transform sees one 3-D field, and the
    in-place passes never write to the caller's array."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_every_fft_call_takes_one_field(self, threads, monkeypatch):
        seen = []
        for name in ("fft", "ifft", "rfft", "irfft"):
            def wrapped(a, *args, _fn=getattr(np.fft, name), _name=name, **kw):
                seen.append((_name, np.ndim(a)))
                return _fn(a, *args, **kw)
            monkeypatch.setattr(np.fft, name, wrapped)
        g = GridSpec(n=12, box=5.0)
        f = np.random.default_rng(3).standard_normal((2, 3) + g.shape)
        with fft_workers(threads):
            fh = g.transform(f)
            g.transform(f[0, 0])
            g.inverse(fh)
            g.inverse(fh[1, 2])
            g.derivative_square_sum(fh[0], 2)
        assert {name for name, _ in seen} == {"fft", "ifft", "rfft", "irfft"}
        assert {ndim for _, ndim in seen} == {3}, sorted(set(seen))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_band_transform_is_the_band_of_the_transform(self, threads):
        g = GridSpec(n=24, box=7.0)
        band = g.two_thirds
        f = np.random.default_rng(5).standard_normal((2, 3) + g.shape)
        with fft_workers(threads):
            got = g.transform(f, band)
        assert got.shape == (2, 3) + band.k_sq.shape
        assert np.array_equal(got, band.take(g.transform(f)))

    def test_inverse_leaves_its_input_unchanged(self):
        g = GridSpec(n=12, box=5.0)
        fh = g.transform(np.random.default_rng(4).standard_normal((4,) + g.shape))
        ref = g.inverse(fh)
        # a band covering every mode takes the whole layout, in take's memory order
        taken = SpectralBand(g, g.n // 2).take(fh)
        assert taken.shape == fh.shape and not taken.flags.c_contiguous
        for arg, want in ((fh, ref), (taken, ref), (fh[::2], ref[::2]), (fh[1], ref[1])):
            before = arg.copy()
            assert np.array_equal(g.inverse(arg), want)
            assert np.array_equal(arg, before)


class TestDealias:
    @pytest.mark.parametrize("n,band", [(8, 0), (12, 3), (24, 7), (24, 12)])
    def test_band_mask_matches_integer_indices(self, n, band):
        g = GridSpec(n=n, box=9.0)
        signed = [i if i <= n // 2 else i - n for i in range(n)]
        ref = np.zeros(g.spectral_shape)
        for i, j, l in itertools.product(range(n), range(n), range(n // 2 + 1)):
            ref[i, j, l] = max(abs(signed[i]), abs(signed[j]), l) <= band
        assert np.array_equal(band_mask(g, band), ref)
        # the sub-lattice of the same band holds exactly these modes
        sub = SpectralBand(g, band)
        assert np.array_equal(sub.embed(sub.take(np.ones(g.spectral_shape))), ref)

    def test_dealias_is_the_two_thirds_band(self):
        g = GridSpec(n=24, box=9.0)
        fh = g.transform(random_field(g, seed=18))
        assert np.array_equal(project(g, fh), band_mask(g, g.n // 3) * fh)

    @pytest.mark.parametrize("n", [8, 12, 24])
    def test_band_sublattice_round_trip_is_dealias(self, n):
        g = GridSpec(n=n, box=9.0)
        band = g.two_thirds
        fh = g.transform(np.stack([random_field(g, seed=s) for s in (19, 20)]))
        restricted = band.take(fh)
        b = n // 3
        assert restricted.shape == (2, 2 * b + 1, 2 * b + 1, b + 1)
        assert np.array_equal(band.embed(restricted), dealias(g, fh))
        assert np.count_nonzero(band_mask(g, b)) == restricted[0].size

    def test_band_operators_are_the_restricted_grid_operators(self):
        g = GridSpec(n=24, box=9.0)
        band = g.two_thirds
        fh = g.transform(random_field(g, seed=21))
        vh = g.transform(np.stack([random_field(g, seed=s) for s in (22, 23, 24)]))
        assert np.array_equal(band.grad(band.take(fh)), band.take(g.grad(fh)))
        assert np.array_equal(band.div(band.take(vh)), band.take(g.div(vh)))
        assert np.array_equal(band.curl(band.take(vh)), band.take(g.curl(vh)))
        assert np.array_equal(band.laplacian(band.take(fh)), band.take(g.laplacian(fh)))
        assert np.array_equal(
            band.longitudinal(band.take(fh)), band.take(g.longitudinal(fh))
        )

    def test_idempotent(self):
        g = GridSpec(n=24, box=9.0)
        fh = g.transform(random_field(g, seed=11))
        once = project(g, fh)
        assert np.array_equal(project(g, once), once)

    def test_support(self):
        g = GridSpec(n=24, box=9.0)
        cut = g.n // 3
        fh = project(g, g.transform(random_field(g, seed=12)))
        idx = np.abs(np.rint(np.fft.fftfreq(g.n, 1.0 / g.n)).astype(int))
        idx_half = np.arange(g.n // 2 + 1)
        beyond = (
            (idx[:, None, None] > cut)
            | (idx[None, :, None] > cut)
            | (idx_half[None, None, :] > cut)
        )
        assert np.abs(fh[beyond]).max() == 0.0
        assert np.abs(fh[~beyond]).max() > 0.0

    def test_product_matches_fine_grid_reference(self):
        # For inputs band-limited below the cut, the dealiased product on the
        # coarse grid must equal the exact product computed on a doubled grid,
        # restricted to the retained band.
        n, box = 24, 9.0
        g = GridSpec(n=n, box=box)
        cut = n // 3
        f = random_field(g, seed=13, band=cut - 1, amp=0.5)
        h = random_field(g, seed=14, band=cut - 1, amp=0.5)
        coarse = np.fft.fftn(g.inverse(project(g, g.transform(f * h)))) / n**3

        # exact product: zero-pad both fields onto a 2n grid
        def upsample(field):
            spec = np.fft.fftn(field) / n**3
            big = np.zeros((2 * n,) * 3, dtype=complex)
            sl = np.r_[0 : n // 2, 2 * n - n // 2 : 2 * n]
            src = np.r_[0 : n // 2, n - n // 2 : n]
            big[np.ix_(sl, sl, sl)] = spec[np.ix_(src, src, src)]
            return np.fft.ifftn(big).real * (2 * n) ** 3

        fine = np.fft.fftn(upsample(f) * upsample(h)) / (2 * n) ** 3
        # compare every retained coarse mode against the fine-grid truth
        idx = np.rint(np.fft.fftfreq(n, 1.0 / n)).astype(int)
        err = 0.0
        for i, ki in enumerate(idx):
            for j, kj in enumerate(idx):
                for l, kl in enumerate(idx):
                    if max(abs(ki), abs(kj), abs(kl)) <= cut:
                        err = max(err, abs(coarse[i, j, l] - fine[ki, kj, kl]))
        assert err < 1e-13


class TestNorms:
    def test_sine_l2_norm_closed_form(self):
        g = GridSpec(n=16, box=13.0)
        f = np.sin(2 * np.pi * g.x1d / g.box)[:, None, None] * np.ones(g.shape)
        assert g.sobolev_norm(f, 0) == pytest.approx(np.sqrt(g.box**3 / 2), rel=1e-12)

    def test_sine_h1_norm_closed_form(self):
        g = GridSpec(n=16, box=13.0)
        f = np.sin(2 * np.pi * g.x1d / g.box)[:, None, None] * np.ones(g.shape)
        expect = np.sqrt(g.box**3 / 2 * (1 + (2 * np.pi / g.box) ** 2))
        assert g.sobolev_norm(f, 1) == pytest.approx(expect, rel=1e-12)

    def test_sobolev_norm_matches_derivative_sum(self):
        # same quantity assembled from the mixed partials in physical space
        g = GridSpec(n=16, box=9.0)
        f = random_field(g, seed=15, band=5)
        total = g.integral(g.derivative_square_sum(g.transform(f), 2)[0])
        assert g.sobolev_norm(f, 2) == pytest.approx(np.sqrt(total), rel=1e-12)

    def test_sobolev_multiplier_cache_does_not_keep_the_grid_alive(self):
        g = GridSpec(16, 5.0)
        assert g.sobolev_multiplier(2) is g.sobolev_multiplier(2)
        ref = weakref.ref(g)
        del g
        gc.collect()
        assert ref() is None


class TestMultiIndices:
    def test_counts(self):
        # |alpha| <= m in 3 variables: binomial(m + 3, 3)
        for m, count in [(0, 1), (1, 4), (2, 10), (3, 20), (4, 35)]:
            assert len(multi_indices(m)) == count

    def test_unique_and_bounded(self):
        idx = multi_indices(3)
        assert len(set(idx)) == len(idx)
        assert all(sum(a) <= 3 and min(a) >= 0 for a in idx)


class TestProperties:
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_parseval_property(self, seed):
        g = GridSpec(n=8, box=5.0)
        f = random_field(g, seed=seed)
        a = g.l2_norm(f) ** 2
        b = g.spectral_l2_sq(g.transform(f))
        assert abs(a - b) <= 1e-12 * max(a, 1.0)
        # the inner product of two fields is the integral of their product, to
        # 1e-12 of the Cauchy-Schwarz bound (the integral itself may be near 0)
        h = random_field(g, seed=seed + 1)
        inner = g.spectral_inner(g.transform(f), g.transform(h))
        assert abs(inner - g.integral(f * h)) <= 1e-12 * g.l2_norm(f) * g.l2_norm(h)
        # on the dealias band, band-limited fields have the grid's inner product
        band = g.two_thirds
        fb, hb = (band.take(g.transform(x)) for x in (f, h))
        on_grid = g.spectral_inner(band.embed(fb), band.embed(hb))
        bound = 1e-12 * np.sqrt(band.spectral_l2_sq(fb) * band.spectral_l2_sq(hb))
        assert abs(band.spectral_inner(fb, hb) - on_grid) <= bound

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_adjointness_property(self, seed):
        g = GridSpec(n=8, box=5.0)
        f = random_field(g, seed=seed)
        h = random_field(g, seed=seed + 1)
        d1f = g.inverse(g.grad(g.transform(f))[0])
        d1h = g.inverse(g.grad(g.transform(h))[0])
        assert abs(g.integral(d1f * h) + g.integral(f * d1h)) < 1e-10

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_dealias_idempotent_property(self, seed):
        g = GridSpec(n=8, box=5.0)
        fh = g.transform(random_field(g, seed=seed))
        once = project(g, fh)
        assert np.array_equal(project(g, once), once)
