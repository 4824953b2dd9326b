"""Spectral fields: transforms, exact norms, curl, and wall residuals."""

import math

import numpy as np
import pytest
from conftest import dct_coeffs_from_values, dct_values_from_coeffs, exact_chebder, mode_field

from slipflow.model import ChannelConfig, ModeProblem, SlipPair, ValidationError
from slipflow.modes import (
    Grid2D,
    build_packet,
    packet_l2_norm,
    sample_packet_field,
)
from slipflow.numerics import wall_values
from slipflow.sim import (
    SpectralField2D,
    cgl_nodes,
    divergence_max,
    field_from_mode_profile,
    field_from_packet,
    field_from_values,
    scalar_inner,
    scalar_norms,
    slip_residuals,
    velocity_from_streamfunction,
    velocity_norms,
)
import slipflow.sim.field as field_module
from slipflow.sim.energy import gradient_dissipation
from slipflow.sim.field import _sq_l2, cheb_coeffs_from_values, cheb_values_from_coeffs


def _sin_parabola_field(M=8, P=24, L=1.0):
    """u = sin(x1) (1 - x2^2) as a spectral field."""
    rows = np.zeros((M + 1, P), dtype=complex)
    # (1 - x^2) = T0/2 - T2/2; sin mode n=1 stored as -+ i/2 pair
    rows[1, 0] = -0.25j
    rows[1, 2] = 0.25j
    return SpectralField2D(rows, L)


def test_known_l2_norm():
    # int sin^2(x1) dx1 = pi, int (1-x2^2)^2 dx2 = 16/15
    f = _sin_parabola_field()
    l2, _, _ = scalar_norms(f)
    assert abs(l2 ** 2 - 16.0 * math.pi / 15.0) <= 1e-13


def test_known_h1_norm():
    f = _sin_parabola_field()
    _, h1, _ = scalar_norms(f)
    # |f|^2 + |df/dx1|^2 + |df/dx2|^2 = 16pi/15 + 16pi/15 + 8pi/3
    expected = 2.0 * 16.0 * math.pi / 15.0 + 8.0 * math.pi / 3.0
    assert abs(h1 ** 2 - expected) <= 1e-12


def test_transform_round_trip():
    rng = np.random.default_rng(3)
    M, P = 6, 12
    rows = rng.standard_normal((M + 1, P)) + 1j * rng.standard_normal((M + 1, P))
    rows[0] = rows[0].real
    f = SpectralField2D(rows, 1.0)
    vals = f.values(n1=4 * M)
    g = field_from_values(vals, M=M, P=P, L=1.0)
    assert np.allclose(g.coefficients, f.coefficients, atol=1e-13)


def test_parseval_against_direct_quadrature():
    rng = np.random.default_rng(5)
    M, P, L = 5, 16, 1.0
    rows = rng.standard_normal((M + 1, P)) * np.exp(-0.4 * np.arange(P))
    rows = rows + 1j * rng.standard_normal((M + 1, P)) * np.exp(-0.4 * np.arange(P))
    rows[0] = rows[0].real
    f = SpectralField2D(rows, L)
    l2, _, _ = scalar_norms(f)
    # direct: sample on a fine tensor grid with Gauss-Legendre in x2
    x2, w2 = np.polynomial.legendre.leggauss(P + 2)
    n1 = 4 * M
    vals = f.values(n1=n1, x2=x2)
    sq = 2.0 * math.pi * L / n1 * float(np.sum(vals ** 2 @ w2))
    assert abs(l2 ** 2 - sq) <= 1e-12 * max(1.0, sq)


def test_scalar_inner_matches_norm():
    f = _sin_parabola_field()
    l2, _, _ = scalar_norms(f)
    assert abs(scalar_inner(f, f) - l2 ** 2) <= 1e-14


def test_reality_defect():
    f = _sin_parabola_field()
    assert f.reality_defect == 0.0
    rows = np.array(f.coefficients)
    rows[0, 0] = 1j * 1e-3
    g = SpectralField2D(rows, 1.0)
    assert g.reality_defect == 1e-3


def test_arithmetic_and_compatibility():
    f = _sin_parabola_field()
    g = 2.0 * f
    assert np.allclose((g - f).coefficients, f.coefficients)
    other = _sin_parabola_field(M=4)
    with pytest.raises(ValueError):
        f + other


def test_velocity_from_streamfunction_is_divergence_free(basis48):
    channel = ChannelConfig(L=1.0, mu=0.5, slip=SlipPair(1.0, 1.0))
    phi, _ = mode_field(channel, basis48, M=8, P=56)
    u1, u2 = velocity_from_streamfunction(phi)
    assert divergence_max(u1, u2) <= 1e-10 * max(1.0, np.abs(u1.coefficients).max())
    # impermeability at the walls
    assert np.abs(wall_values(u2.coefficients)).max() <= 1e-10


def test_slip_residuals_of_eigenmode_profile(basis48):
    channel = ChannelConfig(L=1.0, mu=0.5, slip=SlipPair(1.0, 1.0))
    phi, _ = mode_field(channel, basis48, M=8, P=56)
    res = slip_residuals(phi, 0.5, SlipPair(1.0, 1.0))
    assert max(res) <= 1e-8
    # wrong slip coefficients must show up in the residual
    res_bad = slip_residuals(phi, 0.5, SlipPair(5.0, 5.0))
    assert max(res_bad) > 1e-3


def test_slip_residuals_include_the_mean_row(basis48):
    # the mean flow cosh(a x2) with a tanh a = xi / mu meets the Robin slip rows
    channel = ChannelConfig(L=1.0, mu=0.5, slip=SlipPair(1.0, 1.0))
    a = 1.0
    for _ in range(60):
        a = 2.0 / math.tanh(a)  # fixed point of a tanh a = xi / mu = 2
    phi, _ = mode_field(channel, basis48, M=8, P=64)
    mean = np.zeros((9, 64), dtype=complex)
    mean[0] = cheb_coeffs_from_values(np.cosh(a * cgl_nodes(64)))
    wrong = SlipPair(1.0, 2.0)
    for field in (phi + SpectralField2D(mean, 1.0), SpectralField2D(mean, 1.0)):
        assert max(slip_residuals(field, 0.5, channel.slip)) <= 1e-8
        dirichlet, slip_m, slip_p = slip_residuals(field, 0.5, wrong)
        assert dirichlet <= 1e-10
        assert slip_m <= 1e-8
        assert slip_p > 1e-3


def test_field_from_mode_profile_guards():
    profile = np.ones(60)
    with pytest.raises(ValueError):
        field_from_mode_profile(profile, n_mode=1, M=8, P=56, L=1.0)
    with pytest.raises(ValueError):
        field_from_mode_profile(np.ones(4), n_mode=9, M=8, P=56, L=1.0)


def test_field_from_mode_profile_samples():
    # g(x2) * sin(n x1 / L) round trip through physical samples
    coeffs = np.array([0.5, 0.0, -0.5])  # 1 - x2^2
    f = field_from_mode_profile(coeffs, n_mode=2, M=6, P=12, L=1.0)
    x2 = cgl_nodes(12)
    vals = f.values(n1=24)
    x1 = 2.0 * math.pi * np.arange(24) / 24
    expected = np.sin(2.0 * x1)[:, None] * (1.0 - x2 ** 2)[None, :]
    assert np.allclose(vals, expected, atol=1e-13)


def test_field_from_packet_embeds_two_mode_packet(basis48):
    # the embedded streamfunction carries the packet velocity of modes.py
    from slipflow.spectrum import assemble, solve_spectrum

    def packet_at(k):
        problem = ModeProblem(k=k, mu=0.1, slip=SlipPair(1.0, 1.0))
        return build_packet(solve_spectrum(assemble(problem, basis48)))

    L = 0.5
    packet = packet_at(4.0)
    assert packet.count == 2
    phi = field_from_packet(packet, M=3, P=56, L=L)
    assert np.count_nonzero(np.abs(phi.coefficients).max(axis=1)) == 1
    grid = Grid2D(n1=16, n2=9, L=L)
    u1, u2 = velocity_from_streamfunction(phi)
    want1, want2, _ = sample_packet_field(packet, 0.0, grid)
    assert np.allclose(u1.values(n1=16, x2=grid.x2), want1, rtol=0.0, atol=1e-12)
    assert np.allclose(u2.values(n1=16, x2=grid.x2), want2, rtol=0.0, atol=1e-12)

    with pytest.raises(ValidationError, match="lattice"):
        field_from_packet(packet_at(3.0), M=8, P=56, L=L)
    with pytest.raises(ValueError, match="outside"):
        field_from_packet(packet, M=1, P=56, L=L)


@pytest.mark.parametrize("mu,M,P", [(0.5, 32, 64), (0.1, 16, 56)])
def test_embedded_packet_l2_matches_the_packet_quadrature(basis48, mu, M, P):
    # the experiment takes epsilon0 from packet_l2_norm and C1 from the
    # Gram forms of the embedded field: two independent paths to one norm
    from slipflow.spectrum import assemble, solve_spectrum

    problem = ModeProblem(k=1.0, mu=mu, slip=SlipPair(1.0, 1.0))
    packet = build_packet(solve_spectrum(assemble(problem, basis48)))
    l2, _, _ = velocity_norms(*velocity_from_streamfunction(field_from_packet(packet, M, P, 1.0)))
    want = packet_l2_norm(packet, 1.0)
    assert abs(l2 - want) <= 1.0e-13 * want


def test_values_rejects_undersampling():
    f = _sin_parabola_field(M=8)
    with pytest.raises(ValueError):
        f.values(n1=10)


def test_velocity_norms_combination():
    f = _sin_parabola_field()
    zero = SpectralField2D(np.zeros_like(f.coefficients), f.L)
    a = scalar_norms(f)
    b = velocity_norms(f, zero)
    assert np.allclose(a, b, rtol=1e-15)
    both = velocity_norms(f, f)
    assert np.allclose(both, np.array(a) * math.sqrt(2.0), rtol=1e-15)


def test_cgl_nodes_descending():
    x = cgl_nodes(9)
    assert x[0] == 1.0 and x[-1] == -1.0
    assert np.all(np.diff(x) < 0.0)
    with pytest.raises(ValueError):
        cgl_nodes(3)


@pytest.mark.parametrize("P", [24, 56, 64])
@pytest.mark.parametrize("order", [1, 2])
def test_chebder_rows_matches_numpy_chebder(P, order):
    from numpy.polynomial import chebyshev as C

    from slipflow.sim.field import _chebder_rows

    rng = np.random.default_rng(P + order)
    rows = rng.standard_normal((9, P)) + 1j * rng.standard_normal((9, P))
    der = C.chebder(rows.T, order).T
    want = np.zeros_like(rows)
    want[:, : der.shape[1]] = der
    got = _chebder_rows(rows, order)
    assert got.shape == rows.shape
    assert np.abs(got - want).max() <= 1.0e-13 * np.abs(want).max()


@pytest.mark.parametrize("order", [1, 2])
def test_chebder_matrix_is_exact(order):
    # every column against the derivative in exact rationals
    from fractions import Fraction

    from slipflow.sim.field import _chebder_matrix

    P = 64
    D = _chebder_matrix(P, order)
    assert not D.flags.writeable
    for j in range(P):
        col = [Fraction(int(i == j)) for i in range(P)]
        for _ in range(order):
            col = exact_chebder(col)
        assert [Fraction(v) for v in D[:, j]] == col + [Fraction(0)] * order, j


# -- Gram-matrix norms against the Gauss-Legendre projection ----------------

def _gl_inner(f, g):
    """Exact L2 inner product over the channel by Gauss-Legendre projection."""
    x, w = np.polynomial.legendre.leggauss(f.P)
    V = np.polynomial.chebyshev.chebvander(x, f.P - 1)
    per_mode = ((f.coefficients @ V.T) * (g.coefficients @ V.T).conj()).real @ w
    wts = np.full(f.M + 1, 2.0)
    wts[0] = 1.0
    return float(2.0 * math.pi * f.L * (wts @ per_mode))


def _gl_norms(f):
    """(l2, h1, h2) from the derivative fields, each projected separately."""
    fx, fy = f.d_x1(), f.d_x2()
    sq = _gl_inner(f, f)
    sq1 = sq + _gl_inner(fx, fx) + _gl_inner(fy, fy)
    sq2 = sq1 + sum(_gl_inner(d, d) for d in (fx.d_x1(), fx.d_x2(), fy.d_x2()))
    return math.sqrt(sq), math.sqrt(sq1), math.sqrt(sq2)


def _gl_dissipation(u1, u2, mu):
    return mu * sum(_gl_inner(d, d) for u in (u1, u2) for d in (u.d_x1(), u.d_x2()))


def _random_rows(rng, M, P, L=0.75):
    """Decaying complex rows with a nonzero real mean row."""
    decay = np.exp(-0.3 * np.arange(P))
    rows = (rng.standard_normal((M + 1, P))
            + 1j * rng.standard_normal((M + 1, P))) * decay
    rows[0] = rng.standard_normal(P) * decay
    return SpectralField2D(rows, L)


def _gram_mismatch(P):
    """Largest relative gap of the four Gram-form quantities from the GL path."""
    rng = np.random.default_rng(P)
    f, g = _random_rows(rng, 6, P), _random_rows(rng, 6, P)
    pairs = [(_sq_l2(f), _gl_inner(f, f)),
             (scalar_inner(f, g), _gl_inner(f, g)),
             (gradient_dissipation(f, g, 0.3), _gl_dissipation(f, g, 0.3))]
    pairs += list(zip(scalar_norms(f), _gl_norms(f)))
    return max(abs(got - want) / abs(want) for got, want in pairs)


@pytest.mark.parametrize("P", [16, 24, 56, 64, 96])
def test_gram_forms_match_gauss_legendre_projection(P):
    assert _gram_mismatch(P) <= 1.0e-13


@pytest.mark.parametrize("order", [0, 1, 2])
def test_perturbed_gram_matrix_is_caught(order, monkeypatch):
    P = 56
    exact = field_module._gram_matrix
    noise = 1.0e-9 * np.random.default_rng(order).standard_normal((P, P))

    def perturbed(size, k):
        G = exact(size, k)
        return G * (1.0 + noise) if k == order else G

    monkeypatch.setattr(field_module, "_gram_matrix", perturbed)
    # the cached stack would keep the exact matrices: build it afresh instead
    monkeypatch.setattr(field_module, "_gram_stack", field_module._gram_stack.__wrapped__)
    assert _gram_mismatch(P) > 1.0e-13


def test_gram_matrices_are_cached_read_only():
    # the matrices are cached, read-only, in their one stack
    stack = field_module._gram_stack(24)
    assert stack is field_module._gram_stack(24)
    for k in (0, 1, 2):
        np.testing.assert_array_equal(stack[:, 24 * k:24 * (k + 1)],
                                      field_module._gram_matrix(24, k))
    with pytest.raises(ValueError):
        stack[0, 0] = 1.0


# -- matrix Chebyshev transforms against scipy's DCT-I ----------------------

def test_transform_matrices_are_scipy_dct_of_the_identity():
    eps = np.finfo(float).eps
    for P in range(4, 200):
        eye = np.eye(P)
        for got, want in ((field_module._cheb_transform_matrix(P, False),
                           dct_coeffs_from_values(eye, axis=0)),
                          (field_module._cheb_transform_matrix(P, True),
                           dct_values_from_coeffs(eye, axis=0))):
            assert np.abs(got - want).max() <= 4.0 * eps * np.abs(want).max(), P


@pytest.mark.parametrize("P", [16, 24, 64, 96])
@pytest.mark.parametrize("layout", ["axis1", "axis0", "1d"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_matrix_transforms_match_scipy_dct(P, layout, dtype):
    shape, axis = {"axis1": ((7, P), 1), "axis0": ((P, 5), 0), "1d": ((P,), -1)}[layout]
    rng = np.random.default_rng(P + len(shape))
    x = rng.standard_normal(shape)
    if dtype is complex:
        x = x + 1j * rng.standard_normal(shape)
    coeffs = cheb_coeffs_from_values(x, axis=axis)
    values = cheb_values_from_coeffs(x, axis=axis)
    for got, want in ((coeffs, dct_coeffs_from_values(x, axis=axis)),
                      (values, dct_values_from_coeffs(x, axis=axis))):
        assert got.shape == x.shape and got.dtype == x.dtype
        assert np.abs(got - want).max() <= 1.0e-13 * np.abs(want).max()
    back = cheb_values_from_coeffs(coeffs, axis=axis)
    assert np.abs(back - x).max() <= 1.0e-13 * np.abs(x).max()



def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@pytest.mark.parametrize("P, rows", [(17, 9), (32, 17), (64, 33)])
def test_a_block_of_records_gets_each_records_own_forms_and_norms(P, rows):
    # the forms and norms of records on a leading axis (lead=1) are those
    # of each record alone, bit for bit: every record gets its own product
    # with the Gram stack, its own sums and its own dots.  On these data one
    # product over all the block's rows (at P = 17) and one gemv for the
    # dots of all records round differently
    rng = np.random.default_rng(P)
    c = rng.standard_normal((9, 1, rows, 2, P)) * np.exp(-0.05 * np.arange(P))
    w = field_module._velocity_weights(rows, 1.0)
    g, q = field_module._forms(c, w, lead=1)
    wide = np.exp(5.0 * rng.standard_normal((9, 3, rows)))
    norms = field_module._sobolev_norms(wide, 1.0)
    for i in range(c.shape[0]):
        g_i, q_i = field_module._forms(c[i], w)
        np.testing.assert_array_equal(_bits(g[i]), _bits(g_i))
        np.testing.assert_array_equal(_bits(q[i]), _bits(q_i))
        lone = field_module._sobolev_norms(wide[i], 1.0)
        assert [_bits(v[i]) for v in norms] == [_bits(v) for v in lone]
