"""Write the fixed d=3, K=6 mixture used by the pathwise_3d workload.

    python3 bench/make_fixture.py

The target is drawn once from a fixed generator and committed as
bench/pathwise_3d_target.txt, so the benchmark's --seed only selects the
sampling noise.  Precision Q = A A^T + 3 I is anisotropic; the means are
uniform on [-2, 2]^3, the separation scale of the package's default
mixture; the weights are uniform on [0.5, 1.5] before normalisation.
"""

import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from ddpmlab import MixtureTarget, save_target  # noqa: E402

FIXTURE = os.path.join(HERE, "pathwise_3d_target.txt")


def main():
    rng = np.random.default_rng(2406)
    a = rng.standard_normal((3, 3))
    q = a @ a.T + 3.0 * np.eye(3)
    means = rng.uniform(-2.0, 2.0, (6, 3))
    weights = rng.uniform(0.5, 1.5, 6)
    save_target(MixtureTarget(weights, means, q), FIXTURE)


if __name__ == "__main__":
    main()
