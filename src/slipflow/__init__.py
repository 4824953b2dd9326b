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

Importing the package loads no submodule, so ``slipflow.cli`` can pin the
BLAS thread pools before numpy is imported.
"""

__version__ = "0.1.0"
