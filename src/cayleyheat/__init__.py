"""Heat kernels on finite Abelian Cayley graphs as convolutional
exponentials, lattice Gaussian pushforwards, and numerical checkers for
the associated diffusion inequalities.

The package re-exports nothing: its submodules (groups, lattices, checks,
heat, continuum, approx, cli) are the API."""

__version__ = "0.1.0"
