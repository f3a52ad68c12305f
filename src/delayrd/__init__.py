"""Certified dynamics for a delayed reaction-diffusion equation on the line.

The package integrates the equation

    du/dt = Laplacian(u) - mu*u + sigma*u(x, t - tau) + f(u(x, t - tau)) + g(x)

with the method of steps on a large periodic box, computes the explicit
a-priori constants (absorbing radius, energy bounds), locates the roots of
the characteristic equation to split the linear flow, measures the
squeezing of trajectory differences against the analytic bounds, and turns
the pieces into computable Hausdorff/fractal dimension certificates for the
attractor.

The package exports the ``__all__`` of each library module; the command line
front end, `delayrd.cli`, is imported on its own.
"""

from .model import *  # noqa: F403
from .semigroup import *  # noqa: F403
from .solver import *  # noqa: F403
from .estimates import *  # noqa: F403
from .spectrum import *  # noqa: F403
from .squeezing import *  # noqa: F403
from .dimension import *  # noqa: F403
from . import dimension, estimates, model, semigroup, solver, spectrum, squeezing

__version__ = "0.1.0"

__all__ = sorted({name for module in (model, semigroup, solver, estimates, spectrum, squeezing,
                                      dimension) for name in module.__all__})
