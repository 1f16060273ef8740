"""The one resolution rule: where sqrt(-lam) h > 6 the grid cannot resolve
lam, and every path to B(lam) and B'(lam) refuses it with a NumericsError
(exit 3 from the command line).

At the first energy past the rule each entry point refuses; at the last one
inside it, and at sqrt(-lam) h = 5.9, each outcome is, bit for bit, the one
built from the uncapped diagonals, the smoothing row's
w sqrt(-lam)/(4 pi) + w^2 (lam/(8 pi))/6 and B''s
w/(8 pi sqrt(-lam)) - w^2/(48 pi), with no rule at all.  B''s diagonal
vanishes at sqrt(-lam) h = 6, so from 5.969 on the probe's Gram matrix is
not positive definite and the probe refuses that, with or without the rule.
No bound-state search reaches the rule before the count refuses at n/4.
"""

import json
import math

import numpy as np
import pytest

from curvedelta import (NumericsError, assembly, correction_singular_values,
                        count_bound_states, curve_to_json_dict, find_bound_states,
                        layer_singular_values, make_grid, perturbed_green, spectral)
from curvedelta.assembly import boundary_derivative, boundary_matrix, circle_derivative_modes
from curvedelta.cli import main
from curvedelta.kernels import smoothing_kernel
from curvedelta.spectral import boundary_spectrum
from oracles import kink_increment, seeded_fourier_curve

N = 64
ALPHA = -0.5
POINTS = ([0.0, 0.0, 0.5], [0.3, 0.1, -0.2])


def _refused(lam: float, w: float) -> bool:
    try:
        assembly._resolved(lam, w)
    except NumericsError:
        return True
    return False


def _edge(w: float) -> tuple[float, float]:
    """The last energy the rule accepts on a grid of spacing w and the
    first it refuses, adjacent floats: bisection on the bit patterns of
    sqrt(-lam) h from 5 to 7."""
    lo, hi = (int(np.float64((x / w) ** 2).view(np.int64)) for x in (5.0, 7.0))
    assert not _refused(-float(np.int64(lo).view(np.float64)), w)
    assert _refused(-float(np.int64(hi).view(np.float64)), w)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _refused(-float(np.int64(mid).view(np.float64)), w):
            hi = mid
        else:
            lo = mid
    last, first = (-float(np.int64(bits).view(np.float64)) for bits in (lo, hi))
    assert np.nextafter(last, -np.inf) == first
    return last, first


def _uncapped_row(lam, grid):
    """The smoothing row at lam <= 0 with the uncapped diagonal, no rule."""
    w, a = grid.weight, math.sqrt(-lam)
    row = w * smoothing_kernel(lam, grid.circle_chord_row)
    row[0] = w * (a / (4.0 * np.pi)) + kink_increment(lam / (8.0 * np.pi), w)
    return row


def _uncapped_derivative_diagonal(lam, w):
    return w * (1.0 / (8.0 * np.pi * math.sqrt(-lam))) + kink_increment(-1.0 / (8.0 * np.pi), w)


@pytest.fixture
def uncapped(monkeypatch):
    """Build every table from the uncapped diagonals, with no rule."""
    def patch():
        monkeypatch.setattr(assembly, "smoothing_row", _uncapped_row)
        monkeypatch.setattr(assembly, "_derivative_diagonal", _uncapped_derivative_diagonal)
    return patch


ENTRY_POINTS = {
    # through the module, which the oracle patches
    "smoothing_row": lambda lam, grid: assembly.smoothing_row(lam, grid),
    "boundary_matrix": boundary_matrix,
    "boundary_derivative": boundary_derivative,
    "circle_derivative_modes": circle_derivative_modes,
    "boundary_spectrum": boundary_spectrum,
    "layer_singular_values": lambda lam, grid: layer_singular_values(grid, lam),
    "correction_singular_values": lambda lam, grid: correction_singular_values(grid, lam,
                                                                               ALPHA),
    "perturbed_green": lambda lam, grid: perturbed_green(grid, lam, ALPHA, *POINTS),
}


@pytest.fixture(params=["circle", "ellipse"])
def curve(request):
    return request.getfixturevalue(request.param)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_first_energy_past_the_rule_is_refused(curve, name):
    grid = make_grid(curve, N)
    _, first = _edge(grid.weight)
    with pytest.raises(NumericsError, match=r"is unresolved on the grid: sqrt\(-lam\) h = "
                                            r"6 > 6 - refine the grid"):
        ENTRY_POINTS[name](first, grid)


def _inside(w: float) -> tuple[float, float]:
    """The last energy the rule accepts, and sqrt(-lam) h = 5.9."""
    return _edge(w)[0], -(5.9 / w) ** 2


def _outcome(build, lam, grid):
    """The value of a build, or the message it refuses with."""
    try:
        return build(lam, grid)
    except NumericsError as exc:
        return str(exc)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_energies_inside_the_rule_keep_the_uncapped_bytes(curve, name, uncapped):
    w = make_grid(curve, N).weight
    # each on a fresh grid, which keeps nothing built under the other rule
    outcomes = [_outcome(ENTRY_POINTS[name], lam, make_grid(curve, N)) for lam in _inside(w)]
    assert not isinstance(outcomes[1], str)
    uncapped()
    # the oracle builds past the rule too, so it is not the rule's build
    assert np.all(np.isfinite(assembly.smoothing_row(_edge(w)[1], make_grid(curve, N))))
    for lam, outcome in zip(_inside(w), outcomes):
        assert np.array_equal(outcome, _outcome(ENTRY_POINTS[name], lam, make_grid(curve, N)))


@pytest.fixture(params=["circle", "ellipse"])
def curve_file(request, tmp_path_factory):
    curve = request.getfixturevalue(request.param)
    path = tmp_path_factory.mktemp("curves") / f"{request.param}.json"
    path.write_text(json.dumps(curve_to_json_dict(curve)))
    return str(path), make_grid(curve, N).weight


TABLES = {"spectrum": ["spectrum_0.csv", "spectrum_summary.json"],
          "probe": ["probe_correction.csv", "probe_layer.csv", "probe_summary.json"]}


@pytest.mark.parametrize("command", TABLES)
def test_cli_refuses_past_the_rule_and_keeps_its_tables_inside(curve_file, command, tmp_path,
                                                               capsys, uncapped):
    path, w = curve_file

    def run(lam, out):
        """Exit code, error text and tables of one query."""
        code = main([command, "--curve", path, "--n", str(N), f"--lambda={lam!r}",
                     "--out", str(tmp_path / out)])
        tables = [(tmp_path / out / table).read_bytes() for table in TABLES[command]
                  if (tmp_path / out / table).exists()]
        return code, capsys.readouterr().err, tables

    code, err, _ = run(_edge(w)[1], "past")
    assert code == 3
    assert err.startswith("numerical failure: lam=") and err.endswith("- refine the grid\n")
    runs = [run(lam, f"inside{i}") for i, lam in enumerate(_inside(w))]
    assert runs[1][0] == 0
    uncapped()
    assert runs == [run(lam, f"oracle{i}") for i, lam in enumerate(_inside(w))]


@pytest.mark.parametrize("n", [64, 256])
def test_no_search_meets_the_rule(ellipse, circle, n, monkeypatch):
    # every operator a bound-state search builds, alpha swept down to the
    # count's n/4 refusal, has sqrt(-lam) h below 1, far inside the rule at
    # 6 (measured: at most 0.80 at N = 64, seed 7, and 0.70 at N = 256)
    real, seen = spectral._operator, []

    def recorded(lam, grid, *args, **kwargs):
        seen.append(grid.weight * math.sqrt(-lam))
        return real(lam, grid, *args, **kwargs)

    monkeypatch.setattr(spectral, "_operator", recorded)
    for curve in (ellipse, seeded_fourier_curve(7), circle):
        grid = make_grid(curve, n)
        for alpha in -0.05 * np.arange(1, 100):
            try:
                count_bound_states(grid, alpha)
            except NumericsError as exc:
                assert "trusted range n/4" in str(exc)
                break
            find_bound_states(grid, alpha)
        else:
            pytest.fail("the count never refused")
    assert seen and max(seen) < 1.0
