"""Self-contained property suite: every module invariant as a named check.

Each check returns (margin, detail), the margin being the worst case of the
measured quantity divided by its allowance, so margin <= 1 means pass with
room and the margin quantifies how much; the check table ``_CHECKS`` names
each check once and ``verify_all`` makes each a finding of value margin and
bound 1.  Checks that are pure yes/no questions (bit-exact restarts, count
agreement) report margin 0 on success and 2 on failure.

The suite is deterministic: all randomness flows from the single seed, and
the JSON report contains no timings, so two runs with the same seed produce
byte-identical reports.  One battery builds its two Galerkin bases (N = 48
and 64) and the reference spectrum (k = 1, mu = 0.5, slip (1, 1), N = 48)
once and hands them to every check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import critical
from .findings import bounded
from .model import ChannelConfig, LatticeSweep, ModeProblem, SlipPair
from .numerics import ChebBasis, build_basis, find_root_bracketed
from .spectrum import (
    Spectrum,
    assemble,
    gram_defects,
    lambda1_variational,
    oracle_findings,
    resolved_count,
    solve_spectrum,
    spectrum_residuals,
)
from .modes import (
    build_packet,
    compute_capital_lambda,
    escape_time,
    mode_residuals,
    packet_envelope_value,
    packet_l2_norm,
)
from .sim.field import (
    SpectralField2D,
    cgl_nodes,
    cheb_coeffs_from_values,
    divergence_max,
    field_from_packet,
    field_from_values,
    relative_boundary_residual,
    scalar_norms,
    velocity_from_streamfunction,
)
from .sim.energy import energy_inequality_check, random_solenoidal_field
from .sim.run import read_checkpoint, run, write_checkpoint
from .sim.stepper import ChannelStepper, SimConfig

__all__ = ["verify_all", "CHECK_NAMES"]

_STD_SLIP = SlipPair(1.0, 1.0)
_REFERENCE = ModeProblem(k=1.0, mu=0.5, slip=_STD_SLIP)


@dataclass(frozen=True)
class _Battery:
    """What the checks of one battery share, built once per battery."""

    seed: int
    basis48: ChebBasis
    basis64: ChebBasis
    reference: Spectrum  # _REFERENCE in basis48


def check_critical_closed_form(battery: _Battery) -> tuple:
    """Equal-slip identity, argument symmetry, small-k and large-k limits."""
    worst = 0.0
    detail = {}
    for xi in (0.3, 1.0, 2.7):
        rel = abs(critical.mu_c_global(SlipPair(xi, xi)) - xi) / xi
        worst = max(worst, rel / 1.0e-12)
    detail["equal_slip_rel"] = worst * 1.0e-12
    sym = 0.0
    for k in (0.3, 1.0, 7.0):
        a = critical.mu_c_closed_form(k, SlipPair(0.4, 2.0))
        b = critical.mu_c_closed_form(k, SlipPair(2.0, 0.4))
        sym = max(sym, 0.0 if a == b else 2.0)
    detail["symmetry_exact"] = sym == 0.0
    worst = max(worst, sym)
    for pair in (SlipPair(1.0, 1.0), SlipPair(0.0, 3.0)):
        glob = critical.mu_c_global(pair)
        small = abs(critical.mu_c_closed_form(1.0e-4, pair) - glob) / glob
        worst = max(worst, small / 1.0e-3)
        large = critical.mu_c_closed_form(50.0, pair) / (0.02 * glob)
        worst = max(worst, large)
        detail[f"small_k_rel_{pair.xi_minus:g}_{pair.xi_plus:g}"] = small
        detail[f"large_k_ratio_{pair.xi_minus:g}_{pair.xi_plus:g}"] = large * 0.02
    return worst, detail


def check_critical_monotone(battery: _Battery) -> tuple:
    """mu_c(k) strictly decreases in k for every sampled slip pair."""
    ks = np.geomspace(0.05, 60.0, 60)
    worst = 0.0
    for pair in (SlipPair(1.0, 1.0), SlipPair(0.0, 3.0), SlipPair(0.5, 2.0)):
        vals = np.array([critical.mu_c_closed_form(k, pair) for k in ks])
        if np.any(np.diff(vals) >= 0.0):
            worst = 2.0
    return worst, {"grid_points": ks.size}


def check_critical_variational(battery: _Battery) -> tuple:
    """Closed form versus the variational threshold on a small grid."""
    basis = battery.basis64
    worst = 0.0
    for k in (0.5, 2.0, 8.0):
        for pair in (SlipPair(1.0, 1.0), SlipPair(0.0, 3.0), SlipPair(0.5, 2.0)):
            closed = critical.mu_c_closed_form(k, pair)
            var = critical.mu_c_variational(k, pair, basis)
            worst = max(worst, abs(var - closed) / closed / 1.0e-6)
    return worst, {"tolerance": 1.0e-6}


def check_spectrum_oracle(battery: _Battery) -> tuple:
    """Positive Galerkin eigenvalues match determinant roots to 1e-8 by the
    count rule of ``slipflow spectrum`` (``oracle_findings``); a count above
    the inertia bound is named in the detail.  In every case lambda_1 of the
    discrete slip operator (``lambda1_variational``) meets the dense
    lambda_1 to 1e-10 relative, or the check fails."""
    basis = battery.basis64
    worst = 0.0
    detail = {}
    lambda1_gap = 0.0
    cases = [
        (1.0, 0.5, _STD_SLIP),
        (1.0, 0.9 * critical.mu_c_closed_form(1.0, _STD_SLIP), _STD_SLIP),
        (2.0, 0.9 * critical.mu_c_closed_form(2.0, SlipPair(0.0, 3.0)), SlipPair(0.0, 3.0)),
    ]
    sup = (1.0, 1.1 * critical.mu_c_closed_form(1.0, _STD_SLIP), _STD_SLIP)  # no positive rate
    for k, mu, pair in (*cases, sup):
        problem = ModeProblem(k=k, mu=mu, slip=pair)
        spec = solve_spectrum(assemble(problem, basis))
        lambda1_gap = max(lambda1_gap, abs(lambda1_variational(problem, basis) - spec.lambda1)
                          / abs(spec.lambda1))
        count, bound, mismatch = oracle_findings(spec, 1.0e-8)
        if bound.status == "fail":
            detail.setdefault("inertia_violations", []).append(
                f"k = {k:g}, mu = {mu:.6g}: {bound.cause}")
        if "fail" in (count.status, bound.status) or (k, mu, pair) == sup and count.value:
            worst = 2.0
        else:
            worst = max(worst, mismatch.value / 1.0e-8)
    if lambda1_gap > 1.0e-10:
        worst = 2.0
    detail["cases"] = len(cases) + 1
    detail["lambda1_gap_max"] = lambda1_gap
    return worst, detail


def check_sign_flip(battery: _Battery) -> tuple:
    """lambda_1 changes sign across the critical viscosity."""
    basis = battery.basis48
    worst = 0.0
    for k in (0.5, 1.0, 4.0):
        for pair in (_STD_SLIP, SlipPair(0.0, 3.0)):
            mu_c = critical.mu_c_closed_form(k, pair)
            lo = solve_spectrum(assemble(ModeProblem(k=k, mu=0.9 * mu_c, slip=pair), basis)).lambda1
            hi = solve_spectrum(assemble(ModeProblem(k=k, mu=1.1 * mu_c, slip=pair), basis)).lambda1
            if not (lo > 0.0 > hi):
                worst = 2.0
    return worst, {"k_values": [0.5, 1.0, 4.0]}


def check_eigenfunction_quality(battery: _Battery) -> tuple:
    """Strong-form residuals, boundary residuals, normalization, orthogonality."""
    spec = solve_spectrum(assemble(_REFERENCE, battery.basis64))
    nres = resolved_count(spec)
    strong, bcm, bcp = spectrum_residuals(spec)
    norm_defect, ortho = gram_defects(spec, nres)
    worst = max(
        float(strong[:nres].max()) / 1.0e-6,
        float(max(bcm[:nres].max(), bcp[:nres].max())) / 1.0e-8,
        norm_defect / 1.0e-10,
        ortho / 1.0e-8,
    )
    detail = {
        "resolved": nres,
        "strong_max": float(strong[:nres].max()),
        "bc_max": float(max(bcm[:nres].max(), bcp[:nres].max())),
        "norm_defect": norm_defect,
        "orthogonality_defect": ortho,
    }
    return worst, detail


def check_mode_triple(battery: _Battery) -> tuple:
    """The lifted (psi, phi, pi) triple satisfies the mode system and slip."""
    worst = 0.0
    detail = {}
    for mode in build_packet(battery.reference).modes:
        l1, l2, wall_phi, slip = mode_residuals(mode)
        worst = max(worst, l1 / 1.0e-7, l2 / 1.0e-7, wall_phi / 1.0e-10, slip / 1.0e-8)
        detail[f"lambda_{mode.lam:.6f}"] = {"line1": l1, "line2": l2}
    return worst, detail


def check_escape_time(battery: _Battery) -> tuple:
    """Closed form for one mode, defining equation for two, monotone in delta."""
    packet = build_packet(battery.reference)
    lam = packet.top_lambda
    t1 = escape_time(packet, 1.0e-6, 1.0e-2)
    exact = math.log(1.0e4) / lam
    worst = abs(t1 - exact) / exact / 1.0e-10
    prob2 = ModeProblem(k=1.0, mu=0.1, slip=_STD_SLIP)
    packet2 = build_packet(solve_spectrum(assemble(prob2, battery.basis48)))
    t2 = escape_time(packet2, 1.0e-5, 1.0e-2)
    resid = abs(1.0e-5 * packet_envelope_value(packet2, t2) - 1.0e-2) / 1.0e-2
    worst = max(worst, resid / 1.0e-10)
    t3 = escape_time(packet2, 0.5e-5, 1.0e-2)
    if not t3 > t2:
        worst = max(worst, 2.0)
    ident = abs(
        packet_l2_norm(packet2, 1.0)
        - math.sqrt(math.pi * float(np.sum(packet2.coefficients**2))) / prob2.k
    ) / packet_l2_norm(packet2, 1.0)
    worst = max(worst, ident / 1.0e-12)
    detail = {"single_mode_rel": abs(t1 - exact) / exact, "defining_residual": resid,
              "l2_identity_rel": ident}
    return worst, detail


def check_field_norms(battery: _Battery) -> tuple:
    """Quadrature-exact norms: analytic value, Parseval, divergence-free curl.

    The Parseval reference interpolates the grid values by an explicit
    cosine sum (the type-I DCT written out), not by the transforms of
    ``sim.field``, so it shares no code with the norms it checks.
    """
    P, M, L = 32, 8, 1.0
    rows = np.zeros((M + 1, P), dtype=complex)
    # sin(x1)(1 - x2^2): profile (1 - x^2) = 0.5 T0 - 0.5 T2, sin rows carry
    # -0.5j times the profile.
    rows[1, 0] = -0.25j
    rows[1, 2] = 0.25j
    f = SpectralField2D(rows, L)
    l2 = scalar_norms(f)[0]
    target = math.sqrt(math.pi * 16.0 / 15.0)
    rel = abs(l2 - target) / target
    worst = rel / 1.0e-13

    rng = np.random.default_rng(battery.seed + 11)
    vals = rng.standard_normal((4 * M, P))
    g = field_from_values(vals, M=M, P=P, L=L)
    grid = g.values(n1=4 * M)
    gl_x, gl_w = np.polynomial.legendre.leggauss(P + 2)
    interp = np.polynomial.chebyshev.chebvander(gl_x, P - 1)
    # c_j = (2 / (P - 1)) sum_n w_n g_n cos(pi j n / (P - 1)), with w_n = 1/2
    # at both ends and 1 inside; c_0 and c_(P-1) are halved as well
    j = np.arange(P)
    cosines = np.cos(math.pi * np.outer(j, j) / (P - 1))
    cosines[:, [0, -1]] *= 0.5
    coeffs = grid @ cosines.T * (2.0 / (P - 1))
    coeffs[:, [0, -1]] *= 0.5
    phys = interp @ coeffs.T
    direct = math.sqrt(float(gl_w @ (phys**2).mean(axis=1)) * 2.0 * math.pi * L)
    lib = scalar_norms(g)[0]
    pars = abs(lib - direct) / max(direct, 1.0e-300)
    worst = max(worst, pars / 1.0e-12)

    phi_rows = np.zeros((M + 1, 8), dtype=complex)
    phi_rows[1, :6] = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    phi_rows[2, :6] = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    u1, u2 = velocity_from_streamfunction(SpectralField2D(phi_rows, L))
    div = divergence_max(u1, u2)
    worst = max(worst, div / 1.0e-10)
    detail = {"analytic_rel": rel, "parseval_rel": pars, "divergence": div}
    return worst, detail


def check_linearized_growth(battery: _Battery) -> tuple:
    """The linearized stepper reproduces the top eigenvalue growth rate."""
    packet = build_packet(battery.reference, count=1)
    field = field_from_packet(packet, 8, 56, 1.0)
    lam = packet.top_lambda
    channel = ChannelConfig(L=1.0, mu=0.5, slip=_STD_SLIP)
    cfg = SimConfig(channel=channel, M=8, P=56, dt=4.0e-3, t_end=0.6,
                    linearized=True, diagnostics_stride=15)
    result = run(field * 1.0e-3, cfg)
    times, l2 = result.diagnostics.times, result.diagnostics.l2_norm
    slope = float(np.polyfit(times, np.log(l2), 1)[0])
    rel = abs(slope - lam) / lam
    return rel / 1.0e-2, {"fitted": slope, "eigenvalue": lam, "rel_error": rel}


def check_mean_robin_rate(battery: _Battery) -> tuple:
    """Mean-flow diffusion reproduces the analytic Robin eigenmode rate."""
    mu, xi = 0.5, 1.0
    a = find_root_bracketed(lambda s: s * math.tanh(s) - xi / mu, 1.0e-8, 50.0)
    rate = mu * a * a
    P = 64
    rows = np.zeros((3, P), dtype=complex)
    rows[0] = cheb_coeffs_from_values(np.cosh(a * cgl_nodes(P)))
    channel = ChannelConfig(L=1.0, mu=mu, slip=_STD_SLIP)
    cfg = SimConfig(channel=channel, M=2, P=P, dt=1.0e-3, t_end=0.05,
                    linearized=True, diagnostics_stride=10)
    result = run(SpectralField2D(rows, 1.0), cfg)
    times, l2 = result.diagnostics.times, result.diagnostics.l2_norm
    slope = float(np.polyfit(times, np.log(l2), 1)[0])
    rel = abs(slope - rate) / rate
    return rel / 1.0e-4, {"fitted": slope, "analytic": rate, "rel_error": rel}


def check_energy_fuzz(battery: _Battery) -> tuple:
    """Random solenoidal fields obey the sharp energy inequality."""
    sweep = LatticeSweep(L=1.0, mu=0.5, slip=_STD_SLIP, n_max=8)
    lam_cap, _ = compute_capital_lambda(sweep, battery.basis48)
    rng = np.random.default_rng(battery.seed + 23)
    worst = 0.0
    holds_all = True
    for _ in range(25):
        u1, u2 = random_solenoidal_field(rng, M=8, P=32, L=1.0)
        chk = energy_inequality_check(u1, u2, 0.5, _STD_SLIP, lam_cap)
        holds_all &= chk.holds
        worst = max(worst, (chk.lhs - chk.rhs) / (1.0e-8 * chk.norm_sq))
    packet = build_packet(battery.reference, count=1)
    u1, u2 = velocity_from_streamfunction(field_from_packet(packet, 8, 64, 1.0))
    chk = energy_inequality_check(u1, u2, 0.5, _STD_SLIP, lam_cap)
    eq_rel = abs(chk.lhs / chk.norm_sq - packet.top_lambda) / packet.top_lambda
    margin = max(worst, eq_rel / 1.0e-6, 0.0 if holds_all else 2.0)
    return margin, {"fields": 25, "worst_ratio": worst, "mode_equality_rel": eq_rel}


def check_checkpoint_roundtrip(battery: _Battery) -> tuple:
    """Step, checkpoint mid-way, resume: bit-identical final state."""
    import tempfile
    from pathlib import Path

    field = field_from_packet(build_packet(battery.reference, count=1), 8, 56, 1.0)
    channel = ChannelConfig(L=1.0, mu=0.5, slip=_STD_SLIP)
    cfg = SimConfig(channel=channel, M=8, P=56, dt=2.0e-3, t_end=0.08,
                    diagnostics_stride=10)
    straight = ChannelStepper(cfg, field * 1.0e-2)
    for _ in range(cfg.n_steps):
        straight.step()
    half_steps = cfg.n_steps // 2
    first = ChannelStepper(cfg, field * 1.0e-2)
    for _ in range(half_steps):
        first.step()
    with tempfile.TemporaryDirectory() as td:
        ckpt = Path(td) / "mid.bin"
        write_checkpoint(ckpt, first)
        resumed = read_checkpoint(ckpt, cfg)
    for _ in range(cfg.n_steps - half_steps):
        resumed.step()
    same = np.array_equal(resumed._rows(), straight._rows()) and (
        resumed.t == straight.t
    )
    return (0.0 if same else 2.0), {"bit_identical": bool(same)}


def check_run_invariants(battery: _Battery) -> tuple:
    """Nonlinear run preserves reality, boundary conditions, energy budget."""
    field = field_from_packet(build_packet(battery.reference, count=1), 8, 56, 1.0)
    channel = ChannelConfig(L=1.0, mu=0.5, slip=_STD_SLIP)
    cfg = SimConfig(channel=channel, M=8, P=56, dt=2.0e-3, t_end=0.1,
                    diagnostics_stride=10)
    result = run(field * 1.0e-2, cfg)
    final = result.final_state
    reality = final.reality_defect
    bc = relative_boundary_residual(final, channel.mu, channel.slip)
    l2 = result.diagnostics.l2_norm
    resid = result.diagnostics.energy_residual
    energy_ratio = float(np.max(resid / (1.0e-6 * l2**2)))
    worst = max(reality / 1.0e-12, bc / 1.0e-8, energy_ratio)
    detail = {"reality_defect": reality, "bc_residual": bc,
              "energy_worst_ratio": energy_ratio}
    return worst, detail


_CHECKS = (
    ("critical_closed_form", check_critical_closed_form),
    ("critical_monotone_decrease", check_critical_monotone),
    ("critical_variational_agreement", check_critical_variational),
    ("spectrum_oracle_agreement", check_spectrum_oracle),
    ("sign_flip_at_threshold", check_sign_flip),
    ("eigenfunction_quality", check_eigenfunction_quality),
    ("mode_triple_residuals", check_mode_triple),
    ("escape_time", check_escape_time),
    ("field_norms", check_field_norms),
    ("linearized_growth", check_linearized_growth),
    ("mean_robin_rate", check_mean_robin_rate),
    ("energy_inequality_fuzz", check_energy_fuzz),
    ("checkpoint_roundtrip", check_checkpoint_roundtrip),
    ("run_invariants", check_run_invariants),
)

CHECK_NAMES = tuple(name for name, _ in _CHECKS)


def verify_all(seed: int = 0) -> list:
    """Every property check as a finding; deterministic for a fixed seed."""
    basis48 = build_basis(48)
    battery = _Battery(
        seed=seed,
        basis48=basis48,
        basis64=build_basis(64),
        reference=solve_spectrum(assemble(_REFERENCE, basis48)),
    )
    return [bounded(name, float(margin), 1.0, cause="margin above 1", detail=detail)
            for name, check in _CHECKS for margin, detail in [check(battery)]]
