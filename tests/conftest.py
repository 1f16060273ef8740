import numpy as np
import pytest
import scipy.linalg

from curvedelta import scattering, spectral
from curvedelta import (make_circle, make_ellipse, make_grid,
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


@pytest.fixture
def non_psd_channels(monkeypatch):
    """Move one eigenvalue of Im N from its numerical null space to -1e-6 x
    the mean diagonal of Im N, in every scattering layer matrix."""
    real_matrix = scattering.scattering_layer_matrix

    def matrix(grid, lam, eta):
        n_mat = real_matrix(grid, lam, eta)
        im = n_mat.imag
        null = scipy.linalg.eigh(im)[1][:, 0]
        shift = 1e-6 * np.trace(im) / grid.n
        return n_mat.real + 1j * (im - shift * np.outer(null, null))

    monkeypatch.setattr(scattering, "scattering_layer_matrix", matrix)
