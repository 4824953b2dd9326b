"""Shared fixtures: Galerkin bases, the standard case grid, session experiments.

The separation experiments are expensive (the full sweep runs three deltas
at M = 32, P = 64 for about a minute), so they are session-scoped and
shared between the experiment tests and the acceptance gate.
"""

import math
import time

import numpy as np
import pytest

from slipflow.model import ChannelConfig, SlipPair

STANDARD_SLIP_PAIRS = (SlipPair(1.0, 1.0), SlipPair(0.5, 3.0))
STANDARD_KS = (0.5, 1.0, 2.0)

# Largest distance, in ulps, between two CFL estimates of one state that sum
# in different orders: the stepper's CFL on the closed half period against
# the test reference on the full period.  Each side lands within about 6
# ulps of a long-double evaluation.  Measured over every row prefix (the
# later rows zero): at most 8 ulps on the states of test_stepper.py, 11 on
# 500 random locked states at the same grids.
CFL_ULPS = 16


def _mu_c_textbook(k, slip):
    """mu_c(k) from the textbook closed form, evaluated as written.

    Accurate to a few ulps at the moderate k of the standard grid.  Taking
    the grid from it keeps the cases, and the test ids that print their mu,
    independent of the code under test.
    """
    sig = slip.xi_plus + slip.xi_minus
    dif = slip.xi_plus - slip.xi_minus
    s, c = math.sinh(2.0 * k), math.cosh(2.0 * k)
    P, Q, G = s * c - 2.0 * k, s - 2.0 * k * c, s * s - 4.0 * k * k
    return (P * sig + math.sqrt(Q * Q * sig * sig + s * s * G * dif * dif)) / (4.0 * k * s * s)


def standard_cases(factors=(0.5, 0.9)):
    """(k, mu, slip) triples with mu at the given fractions of mu_c(k, slip)."""
    return [
        (k, f * _mu_c_textbook(k, slip), slip)
        for slip in STANDARD_SLIP_PAIRS
        for k in STANDARD_KS
        for f in factors
    ]


def oracle_counts(spectrum, tol=1.0e-8):
    """(galerkin count, oracle count, max relative mismatch, excused) of a
    spectrum, read off the findings of the count rule."""
    from slipflow.spectrum import oracle_findings

    count, _, mismatch = oracle_findings(spectrum, tol)
    return (count.value, count.detail["positive_count_oracle"], mismatch.value,
            count.detail.get("marginal_positives_excused", 0))


def dct_coeffs_from_values(vals, axis=-1):
    """Chebyshev-T coefficients from CGL node values by scipy's DCT-I.

    The reference for the library's matrix transforms, kept independent of
    the code under test.
    """
    from scipy import fft

    P = vals.shape[axis]
    c = fft.dct(vals, type=1, axis=axis) / (P - 1)
    edges = [slice(None)] * c.ndim
    edges[axis] = [0, P - 1]
    c[tuple(edges)] *= 0.5
    return c


def dct_values_from_coeffs(coeffs, axis=-1):
    """CGL node values from Chebyshev-T coefficients by scipy's DCT-I."""
    from scipy import fft

    P = coeffs.shape[axis]
    d = coeffs.copy()
    edges = [slice(None)] * d.ndim
    edges[axis] = [0, P - 1]
    d[tuple(edges)] *= 2.0
    return 0.5 * fft.dct(d, type=1, axis=axis)


def solve_streamfunction(stepper, rows=None):
    """Streamfunction node rows of complex state-shaped rows (the stepper's
    state by default): the stepper's own solve, ``_solve_planes``, taken
    from its eigenbasis to the interior nodes by V^T, the inverse of the
    interior block of ``_to_eig`` (V^-T); the wall values are zero.  Row 0,
    the mean row, has no streamfunction and reads zero."""
    from slipflow.sim.stepper import _complex, _planes

    rows = stepper._rows() if rows is None else rows
    phi = np.zeros(rows.shape, dtype=complex)
    eig = _complex(stepper._solve_planes(_planes(rows)))
    phi[:, 1:-1] = eig @ np.linalg.inv(stepper._to_eig[1:-1])
    return phi


def velocity_nodes(stepper, phi, mean_row):
    """(u1, u2) node values of streamfunction rows ``phi``: u1 = D phi on the
    node values, with ``mean_row`` as row 0, and u2 = -i kappa_n phi."""
    u1 = phi @ stepper.D.T
    u1[0] = mean_row
    u2 = -1j * stepper.kappa[: phi.shape[0], None] * phi
    u2[0] = 0.0
    return u1, u2


def node_velocity(stepper, rows):
    """(u1, u2) coefficient fields of complex state-shaped rows, the
    reference for the stepper's coefficient map: ``solve_streamfunction``,
    ``velocity_nodes`` and the DCT-I of ``dct_coeffs_from_values``."""
    from slipflow.sim.field import SpectralField2D

    nodes = velocity_nodes(stepper, solve_streamfunction(stepper, rows), rows[0])
    return tuple(SpectralField2D(dct_coeffs_from_values(u, axis=1), stepper.L)
                 for u in nodes)


def mode_field(channel, basis, M=16, P=56, amplitude=1.0):
    """Fastest k = 1 mode embedded at (M, P) by field_from_packet, and lambda_1."""
    from slipflow.model import ModeProblem
    from slipflow.modes import build_packet
    from slipflow.sim import field_from_packet
    from slipflow.spectrum import assemble, solve_spectrum

    problem = ModeProblem(k=1.0, mu=channel.mu, slip=channel.slip)
    spectrum = solve_spectrum(assemble(problem, basis))
    field = field_from_packet(build_packet(spectrum, count=1), M, P, channel.L)
    return field * amplitude, spectrum.lambda1


def exact_chebder(coeffs):
    """Chebyshev-T coefficients of the derivative in exact rationals
    (``fractions.Fraction``): c'_(k-1) = c'_(k+1) + 2 k c_k downward from
    the top, then c'_0 halved; one entry fewer than ``coeffs``."""
    from fractions import Fraction

    n = len(coeffs)
    out = [Fraction(0)] * (n + 1)
    for k in range(n - 1, 0, -1):
        out[k - 1] = out[k + 1] + 2 * k * coeffs[k]
    out[0] /= 2
    return out[: n - 1]


def lopsided_basis(basis):
    """The trial space {phi_0 + phi_1, phi_2, ..., phi_{N-1}} of ``basis``:
    not mapped onto itself by x2 -> -x2, so the two walls are told apart."""
    from slipflow.numerics import ChebBasis

    M = np.eye(basis.size)[:, 1:]
    M[0, 0] = 1.0
    return ChebBasis(
        size=basis.size - 1,
        quad_nodes=basis.quad_nodes,
        quad_weights=basis.quad_weights,
        node_tables=[T @ M for T in basis.node_tables],
        wall_tables=[T @ M for T in basis.wall_tables],
        cheb_coeffs=M.T @ basis.cheb_coeffs,
    )


@pytest.fixture(scope="session")
def basis32():
    from slipflow.numerics import build_basis

    return build_basis(32)


@pytest.fixture(scope="session")
def basis48():
    from slipflow.numerics import build_basis

    return build_basis(48)


@pytest.fixture(scope="session")
def basis64():
    from slipflow.numerics import build_basis

    return build_basis(64)


@pytest.fixture(scope="session")
def acceptance_channel():
    """L = 1, slip (1, 1), mu = 0.5 = half the global critical viscosity."""
    return ChannelConfig(L=1.0, mu=0.5, slip=SlipPair(1.0, 1.0))


@pytest.fixture(scope="session")
def acceptance_experiment(tmp_path_factory, acceptance_channel):
    """The full separation sweep at deltas 1e-5, 1e-6, 1e-7 (about a minute)."""
    from slipflow.sim import SimConfig, run_separation_experiment

    sim = SimConfig(
        channel=acceptance_channel, M=32, P=64, dt=4.0e-3, diagnostics_stride=25
    )
    out = tmp_path_factory.mktemp("acceptance_experiment")
    t0 = time.perf_counter()
    exp = run_separation_experiment(
        acceptance_channel, sim=sim, deltas=(1.0e-5, 1.0e-6, 1.0e-7), out_dir=out
    )
    wall = time.perf_counter() - t0
    return exp, out, wall


@pytest.fixture(scope="session")
def smoke_experiment(tmp_path_factory):
    """Cheap two-unstable-mode sweep at mu = 0.1, nonempty reduced packet."""
    from slipflow.sim import SimConfig, run_separation_experiment

    channel = ChannelConfig(L=1.0, mu=0.1, slip=SlipPair(1.0, 1.0))
    sim = SimConfig(channel=channel, M=16, P=56, dt=1.0e-3, diagnostics_stride=25)
    out = tmp_path_factory.mktemp("smoke_experiment")
    exp = run_separation_experiment(
        channel, sim=sim, deltas=(1.0e-3, 1.0e-4), basis_size=48, n_max=12,
        out_dir=out,
    )
    return exp, out
