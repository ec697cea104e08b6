"""Numerical laboratory for discrete-time DDPM sampling on tractable targets.

Modules:
    schedule   noise schedules and derived time coefficients
    target     Gaussian-mixture targets with closed-form scores and marginals
    simulate   forward chain, reverse-time SDE, DDPM sampler, score models
    fbsde      backward-SDE / PDE characterization checks of the score
    metrics    TV/KL distances and score-matching diagnostics
    bounds     explicit error bounds vs. empirical counterparts
    experiments, cli   reproducible config-driven runs
"""

from .schedule import *  # noqa: F401,F403
from .target import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403
from .fbsde import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .bounds import *  # noqa: F401,F403

__version__ = "0.1.0"
