import json

import numpy as np
import pytest

from curvedelta import spectral
from curvedelta import (curve_from_json_dict, make_circle, make_ellipse, make_grid,
                        reparametrize_arclength, scale_to_length)
from oracles import seeded_fourier_curve


@pytest.fixture(scope="session")
def circle():
    return make_circle(1.0)


@pytest.fixture(scope="session")
def circle_grid(circle):
    return make_grid(circle, 256)


@pytest.fixture(scope="session")
def ellipse():
    """2:1 ellipse rescaled to length 2 pi, arc-length parametrized."""
    return reparametrize_arclength(scale_to_length(make_ellipse(2.0, 1.0), 2.0 * np.pi))


@pytest.fixture(scope="session")
def ellipse_grid(ellipse):
    return make_grid(ellipse, 256)


@pytest.fixture(scope="session")
def defect_grid():
    """N = 256 grid on the seed-7 curve, where the count sandwich once
    escaped at alpha = -0.2."""
    return make_grid(seeded_fourier_curve(7), 256)


# the curve of the benchmark's `continuum` seed-10 query 9, as its curve
# file gives it: at lam = 0.5 and alpha = -0.5 it sits near the exceptional
# set (condition 5e7), and its 17 channels above rank_tol leak 2.7e-6
SEED10_CURVE = {
    "kind": "fourier", "a0": [0.0, 0.0, 0.0],
    "cos": [[0.9150635655039969, 0.0, 0.0],
            [-0.03782339200124831, 0.06259355426018783, -0.04713081970917538],
            [-0.15407595623194104, -0.007419508681399767, -0.09929162654074507]],
    "sin": [[0.0, 0.9150635655039969, 0.0],
            [0.03571823081070558, -0.055471948325202955, -0.020770358483983314],
            [0.05703554614383392, -0.013706088912535346, -0.06961981694754132]],
    "period": 5.749513949910078,
}


@pytest.fixture(scope="session")
def seed10_curve():
    return curve_from_json_dict(SEED10_CURVE)


@pytest.fixture(scope="session")
def seed10_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("curves") / "seed10.json"
    path.write_text(json.dumps(SEED10_CURVE))
    return str(path)


@pytest.fixture
def humped_branches(monkeypatch):
    """Lift every eigenvalue branch by +1 for -2 < lam < -0.01.

    The hump puts nu_k(lam) above nu_k(0) strictly inside the bound-state
    bracket, so a root finder that checks monotonicity must refuse.  It is
    applied where the floor and the root search evaluate a branch, on the
    circle's FFT path and on the dense path alike.
    """
    real_value = spectral._Operator.branch_value

    def value(op, k):
        return real_value(op, k) + (1.0 if -2.0 < op.lam < -0.01 else 0.0)

    monkeypatch.setattr(spectral._Operator, "branch_value", value)
