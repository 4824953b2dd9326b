"""slipflow: instability toolkit for viscous channel flow with slip walls.

Subpackages cover the pipeline from parameters to nonlinear simulation:

- ``model``:     domain types (slip pair, channel, mode problem) and config files
- ``numerics``:  wall-clamped Chebyshev basis, symmetric pencils, root finding
- ``critical``:  critical viscosity mu_c(k), global threshold, critical wavenumber
- ``spectrum``:  growth-rate spectrum per wavenumber with an exact-solution oracle
- ``modes``:     physical normal modes, mode packets, growth envelope, escape time
- ``sim``:       spectral Navier-Stokes solver (streamfunction-vorticity) and the
                 nonlinear separation experiment
- ``cli``:       reproducible command-line front end
"""

from .model import ChannelConfig, LatticeSweep, ModeProblem, SlipPair
from .numerics import ChebBasis, CoeffVector, build_basis
from .critical import mu_c_closed_form, mu_c_global, mu_c_variational, critical_wavenumber
from .spectrum import assemble, solve_spectrum, lambda1_variational, determinant_roots
from .modes import (
    ModePacket,
    GrowthEnvelope,
    build_packet,
    compute_capital_lambda,
    escape_time,
)

__version__ = "0.1.0"
