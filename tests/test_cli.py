import collections
import gc
import json
import math
import os
import pathlib
import subprocess
import sys
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import curvedelta
import curvedelta.cli as cli_mod
import curvedelta.resolvent as resolvent_mod
import curvedelta.scattering as scattering_mod
from curvedelta import boundary_matrix, curve_to_json_dict, eigen, make_circle, make_grid
from curvedelta.cli import main
import table_diff

LN4_OVER_2PI = math.log(4.0) / (2.0 * math.pi)


@pytest.fixture(scope="module")
def circle_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("curves") / "circle.json"
    path.write_text(json.dumps({"kind": "circle", "radius": 1.0}))
    return str(path)


@pytest.fixture(scope="module")
def fourier_circle_file(tmp_path_factory):
    """The unit circle written as a Fourier curve, which its grid's chords
    recognize as a circle."""
    path = tmp_path_factory.mktemp("curves") / "fcircle.json"
    path.write_text(json.dumps({"kind": "fourier", "cos": [[1.0, 0.0, 0.0]],
                                "sin": [[0.0, 1.0, 0.0]]}))
    return str(path)


@pytest.fixture(scope="module")
def ellipse_file(tmp_path_factory, ellipse):
    path = tmp_path_factory.mktemp("curves") / "ellipse.json"
    path.write_text(json.dumps(curve_to_json_dict(ellipse)))
    return str(path)


def _read_rows(path):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = lines[1].split(",")
    rows = [ln.split(",") for ln in lines[2:]]
    return header, rows


class TestSpectrum:
    def test_circle_closed_form_column(self, circle_file, tmp_path):
        out = str(tmp_path)
        assert main(["spectrum", "--curve", circle_file, "--n", "256",
                     "--out", out]) == 0
        summary = json.loads((tmp_path / "spectrum_summary.json").read_text())
        assert summary["0"]["max_closed_form_deviation"] < 1e-6
        header, rows = _read_rows(tmp_path / "spectrum_0.csv")
        assert header == ["k", "nu", "nu_closed_form"]
        assert len(rows) == 64

    def test_closed_form_column_is_the_fft_spectrum(self, circle_file, tmp_path):
        # both read the levels at R = L/(2 pi) of the grid; at N = 200 the
        # circle's own radius differs from it in the last bit
        assert main(["spectrum", "--curve", circle_file, "--n", "200",
                     "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "spectrum_summary.json").read_text())
        assert summary["0"]["max_closed_form_deviation"] == 0

    def test_fourier_circle_closed_form_column(self, fourier_circle_file, tmp_path):
        # the closed form follows the grid's geometry, not the file's kind
        assert main(["spectrum", "--curve", fourier_circle_file, "--n", "256",
                     "--lambda", "0,-1", "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "spectrum_summary.json").read_text())
        assert summary["0"]["max_closed_form_deviation"] == 0
        assert "max_closed_form_deviation" not in summary["1"]
        assert _read_rows(tmp_path / "spectrum_0.csv")[0] == ["k", "nu", "nu_closed_form"]

    def test_missing_curve_file(self, tmp_path):
        assert main(["spectrum", "--curve", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2

    def test_odd_grid_size(self, circle_file, tmp_path):
        assert main(["spectrum", "--curve", circle_file, "--n", "255",
                     "--out", str(tmp_path)]) == 2

    def test_positive_energy_rejected(self, circle_file, tmp_path):
        assert main(["spectrum", "--curve", circle_file, "--lambda", "1.0",
                     "--out", str(tmp_path)]) == 2


class TestBoundStates:
    def test_single_state(self, circle_file, tmp_path):
        out = str(tmp_path)
        assert main(["bound-states", "--curve", circle_file, "--n", "64",
                     "--alpha", "0.1", "--out", out]) == 0
        _, rows = _read_rows(tmp_path / "bound_states.csv")
        assert len(rows) == 1
        assert float(rows[0][2]) < 0.0
        _, counts = _read_rows(tmp_path / "counts.csv")
        assert int(counts[0][1]) == 1

    def test_supercritical_coupling_empty_table(self, circle_file, tmp_path):
        out = str(tmp_path)
        assert main(["bound-states", "--curve", circle_file, "--n", "64",
                     "--alpha", "0.3", "--out", out]) == 0
        _, rows = _read_rows(tmp_path / "bound_states.csv")
        assert rows == []
        _, counts = _read_rows(tmp_path / "counts.csv")
        assert int(counts[0][1]) == 0

    def test_negative_max_states_exits_2(self, circle_file, tmp_path, capsys):
        # it wrote an empty bound_states.csv beside a counts.csv that counted them
        assert main(["bound-states", "--curve", circle_file, "--n", "64", "--alpha=-0.2",
                     "--max-states=-2", "--out", str(tmp_path)]) == 2
        assert "max_states must be nonnegative" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("cap", [[], ["--max-states=100"], ["--max-states=1"]])
    def test_lost_root_exits_4_under_any_cap(self, circle_file, tmp_path, monkeypatch, cap):
        # a cap switched the check off: with --max-states=100 the lost root
        # went unnoticed and two states were written beside a count of three
        real = cli_mod.find_bound_states
        monkeypatch.setattr(cli_mod, "find_bound_states",
                            lambda *args, **kwargs: real(*args, **kwargs)[:-1])
        assert main(["bound-states", "--curve", circle_file, "--n", "64", "--alpha=-0.2",
                     "--out", str(tmp_path)] + cap) == 4

    def test_cap_below_the_count(self, circle_file, tmp_path):
        assert main(["bound-states", "--curve", circle_file, "--n", "64", "--alpha=-0.2",
                     "--max-states=1", "--out", str(tmp_path)]) == 0
        assert len(_read_rows(tmp_path / "bound_states.csv")[1]) == 1
        assert int(_read_rows(tmp_path / "counts.csv")[1][0][1]) == 3

    def test_endpoint_flag_cell(self, circle_file, tmp_path):
        # alpha = nu_2 of the unit circle, an end of the interval of count 3
        alpha = float(curvedelta.circle_mode_eigenvalues(1.0, 2)[1][1])
        assert main(["bound-states", "--curve", circle_file, "--n", "256",
                     f"--alpha={alpha!r}", "--out", str(tmp_path)]) == 0
        header, counts = _read_rows(tmp_path / "counts.csv")
        row = dict(zip(header, counts[0]))
        assert (row["count"], row["endpoint_flag"]) == ("3", "1")

    def test_zero_coupling(self, circle_file, tmp_path):
        assert main(["bound-states", "--curve", circle_file, "--alpha", "0",
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("curve_file", ["circle_file", "ellipse_file"])
    def test_non_monotone_branch_exits_3(self, curve_file, tmp_path, humped_branches,
                                         request, capsys):
        assert main(["bound-states", "--curve", request.getfixturevalue(curve_file),
                     "--n", "256",
                     "--alpha", "0.1", "--out", str(tmp_path)]) == 3
        assert "monotonicity violated" in capsys.readouterr().err

    def test_ellipse_count_inside_its_sandwich(self, ellipse_file, tmp_path):
        # the 2:1 ellipse of the README exited 4 here: "count 4 escapes the
        # sandwich [3, 3]"
        assert main(["bound-states", "--curve", ellipse_file, "--n", "256",
                     "--alpha", "-0.2", "--out", str(tmp_path)]) == 0
        _, rows = _read_rows(tmp_path / "bound_states.csv")
        assert len(rows) == 4
        header, counts = _read_rows(tmp_path / "counts.csv")
        row = dict(zip(header, counts[0]))
        assert (row["lower"], row["count"], row["upper"]) == ("3", "4", "5")

    def test_determinism(self, circle_file, tmp_path):
        args = ["bound-states", "--curve", circle_file, "--n", "64",
                "--alpha", "0.1,-0.2"]
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--out", out2]) == 0
        for name in ("bound_states.csv", "counts.csv"):
            b1 = open(os.path.join(out1, name), "rb").read()
            b2 = open(os.path.join(out2, name), "rb").read()
            assert b1 == b2


class TestScattering:
    def test_unitarity_summary(self, circle_file, tmp_path):
        out = str(tmp_path)
        assert main(["scattering", "--curve", circle_file, "--n", "128",
                     "--alpha", "-0.5", "--lambda", "1.0", "--out", out]) == 0
        header, rows = _read_rows(tmp_path / "scattering.csv")
        defect = float(rows[0][header.index("unitarity_defect")])
        assert defect < 1e-6

    def test_smatrix_dump(self, circle_file, tmp_path):
        out = str(tmp_path)
        assert main(["scattering", "--curve", circle_file, "--n", "64",
                     "--alpha", "-0.5", "--lambda", "1.0", "--dump-smatrix",
                     "--out", out]) == 0
        _, rows = _read_rows(tmp_path / "smatrix_0.csv")
        dim = int(math.isqrt(len(rows)))
        assert dim * dim == len(rows) and dim > 0
        # the meta line names no reference energy
        assert (tmp_path / "smatrix_0.csv").read_text().startswith("# smatrix lam=1 alpha=-0.5\n")

    def test_condition_written_to_three_digits(self, ellipse_file, tmp_path, monkeypatch):
        # ?sycon can return the estimate with different last digits in
        # different processes from bitwise identical factors, so the table
        # holds 3 digits of it; the refusal reads the unrounded value
        conditions = []
        real_block = cli_mod.scattering_block

        def block(*args, **kwargs):
            found = real_block(*args, **kwargs)
            conditions.append(found.condition)
            return found

        monkeypatch.setattr(cli_mod, "scattering_block", block)
        assert main(["scattering", "--curve", ellipse_file, "--n", "64",
                     "--alpha=-0.3", "--lambda=0.5,2", "--out", str(tmp_path)]) == 0
        header, rows = _read_rows(tmp_path / "scattering.csv")
        written = [row[header.index("condition")] for row in rows]
        assert written == [format(c, ".3g") for c in conditions]
        assert all(float(text) == pytest.approx(c, rel=5e-3) for text, c in zip(written, conditions))

    @pytest.mark.parametrize("eta", ["-1,5", "5,-1", "-1,-4,0"])
    def test_any_nonnegative_eta_exits_2(self, circle_file, tmp_path, capsys, eta):
        # an earlier command line's reference energies are refused, never
        # ignored: scattering declares no --eta
        assert main(["scattering", "--curve", circle_file, "--n", "64",
                     "--alpha=-0.5", f"--eta={eta}", "--out", str(tmp_path)]) == 2
        assert "unrecognized arguments: --eta" in capsys.readouterr().err

    def test_alpha_on_reference_spectrum_exits_0(self, circle_file, tmp_path):
        # the system B(lam + i0) - alpha has no reference energy, so alpha
        # on an eigenvalue of B(-1) is valid input, and the table has no
        # eta column
        alpha = eigen(boundary_matrix(-1.0, make_grid(make_circle(1.0), 256)))[4]
        assert main(["scattering", "--curve", circle_file, "--n", "256",
                     f"--alpha={float(alpha)!r}", "--lambda=0.5,1",
                     "--out", str(tmp_path)]) == 0
        header, rows = _read_rows(tmp_path / "scattering.csv")
        assert header == ["lam", "retained_dim", "unitarity_defect",
                          "min_channel_eigenvalue", "condition"]
        assert [row[0] for row in rows] == ["0.5", "1"]

    def test_near_exceptional_energy_never_exits_4(self, seed10_file, tmp_path):
        # the benchmark's seed-10 curve at lam = 0.5: the channels above
        # rank_tol leak 2.7e-6, a truncation of the channel space, not a
        # violated invariant; the block widens until unitary or refuses
        code = main(["scattering", "--curve", seed10_file, "--n", "1024",
                     "--alpha", "-0.5", "--lambda", "0.5", "--out", str(tmp_path)])
        assert code in (0, 3)
        if code == 0:
            header, rows = _read_rows(tmp_path / "scattering.csv")
            assert float(rows[0][header.index("unitarity_defect")]) < scattering_mod.UNITARITY_TOL
            assert int(rows[0][header.index("retained_dim")]) > 17

    def test_widening_refusal_exits_3(self, circle_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(scattering_mod, "UNITARITY_TOL", 0.0)
        assert main(["scattering", "--curve", circle_file, "--n", "64",
                     "--alpha", "-0.5", "--lambda", "1.0", "--out", str(tmp_path)]) == 3
        assert "cannot be widened until unitary" in capsys.readouterr().err

    def test_condition_refusal_exits_3(self, circle_file, tmp_path, monkeypatch):
        monkeypatch.setattr(scattering_mod, "CONDITION_LIMIT", 1.0)
        assert main(["scattering", "--curve", circle_file, "--n", "64",
                     "--alpha", "-0.5", "--lambda", "1.0",
                     "--out", str(tmp_path)]) == 3


class TestIsoperimetric:
    def test_gap_reported(self, ellipse_file, tmp_path):
        out = str(tmp_path)
        assert main(["isoperimetric", "--curve", ellipse_file, "--n", "128",
                     "--alpha", "-0.5", "--out", out]) == 0
        header, rows = _read_rows(tmp_path / "isoperimetric.csv")
        assert float(rows[0][header.index("gap")]) > 0.0

    @pytest.mark.parametrize("radius,n,alpha", [
        (1.0, 256, 0.1), (1.0, 256, -0.15), (2.5, 1000, -0.4)])
    def test_circle_against_itself_exits_0(self, tmp_path, radius, n, alpha):
        # a circle grid is its own equal-length circle: the gap is exactly 0
        # (a circle rebuilt from the length N h differs by an ulp at R = 2.5)
        curve = tmp_path / "circle.json"
        curve.write_text(json.dumps({"kind": "circle", "radius": radius}))
        assert main(["isoperimetric", "--curve", str(curve), "--n", str(n),
                     "--alpha", str(alpha), "--out", str(tmp_path)]) == 0
        header, rows = _read_rows(tmp_path / "isoperimetric.csv")
        assert float(rows[0][header.index("gap")]) == 0.0
        assert rows[0][header.index("energy_curve")] == rows[0][header.index("energy_circle")]

    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_fourier_circle_against_itself_exits_0(self, fourier_circle_file, tmp_path, n):
        # the unit circle of a Fourier file is recognized by its grid, so it
        # too is its own equal-length circle; on the dense path its gap was
        # rounding, not positive in 20 of these 24 cases, and exited 4
        for alpha in (-0.3, -0.25, -0.2, -0.15, -0.1, -0.05, 0.05, 0.1):
            assert main(["isoperimetric", "--curve", fourier_circle_file, "--n", str(n),
                         f"--alpha={alpha}", "--out", str(tmp_path)]) == 0
            header, rows = _read_rows(tmp_path / "isoperimetric.csv")
            assert float(rows[0][header.index("gap")]) == 0.0, alpha

    @pytest.mark.parametrize("offset", [1e3, 1e4])
    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_translated_circle_against_itself_exits_0(self, tmp_path, n, offset):
        # a tilted unit circle `offset` radii from the origin: its chords
        # round with its coordinates, and the circle rule scales with them,
        # so it too is its own equal-length circle; on the dense path its gap
        # was rounding, negative in 12 of these 18 cases, and exited 4
        curve = tmp_path / "tcircle.json"
        curve.write_text(json.dumps({
            "kind": "fourier", "a0": [offset * c / math.sqrt(14.0) for c in (1.0, 2.0, 3.0)],
            "cos": [[1.0, 0.0, 0.0]], "sin": [[0.0, 0.6, 0.8]]}))
        for alpha in (-0.3, -0.15, 0.1):
            assert main(["isoperimetric", "--curve", str(curve), "--n", str(n),
                         f"--alpha={alpha}", "--out", str(tmp_path)]) == 0, alpha
            header, rows = _read_rows(tmp_path / "isoperimetric.csv")
            assert float(rows[0][header.index("gap")]) == 0.0, alpha


class TestProbe:
    def test_slopes_populated(self, circle_file, tmp_path):
        out = str(tmp_path)
        assert main(["probe", "--curve", circle_file, "--n", "256",
                     "--box-n", "20", "--out", out]) == 0
        summary = json.loads((tmp_path / "probe_summary.json").read_text())
        assert summary["slope_correction"] <= -1.8
        assert summary["slope_layer"] <= -0.9
        assert summary["fit_window"] == list(resolvent_mod.FIT_WINDOW)
        assert summary["kappa_length"] == pytest.approx(2.0 * math.pi, rel=1e-14)
        assert sorted(summary) == ["alpha", "fit_window", "kappa_length", "lam",
                                   "slope_correction", "slope_layer"]

    def test_box_options_have_no_effect(self, ellipse_file, tmp_path):
        outputs = []
        for extra in ([], ["--box-n", "12"]):
            out = tmp_path / str(len(extra))
            assert main(["probe", "--curve", ellipse_file, "--n", "64", *extra,
                         "--out", str(out)]) == 0
            outputs.append([(out / name).read_bytes() for name in
                            ("probe_correction.csv", "probe_layer.csv", "probe_summary.json")])
        assert outputs[0] == outputs[1]

    def test_probe_operation_counts(self, circle_file, ellipse_file, tmp_path, monkeypatch):
        # a probe assembles B(lam) once, densely also on the circle, takes
        # the spectrum of X and one generalized eigensolve of (alpha - B, X);
        # the margin takes no eigensolve of B: two LDL^T inertias on a
        # non-circle curve, the FFT on the circle.  No Cholesky, solve, QR
        # or SVD is left.  Calls on N x N matrices are counted.
        n = 64
        calls = []

        def counted(module, name):
            real = getattr(module, name)

            def call(*args, **kwargs):
                if name == "boundary_matrix" or np.shape(args[0]) == (n, n):
                    calls.append(name)
                return real(*args, **kwargs)

            for holder in (module, curvedelta.spectral, curvedelta.resolvent):
                if getattr(holder, name, None) is real:
                    monkeypatch.setattr(holder, name, call)

        counted(curvedelta.assembly, "boundary_matrix")
        for name in ("eigh", "cholesky", "solve", "qr", "svd", "svdvals"):
            counted(scipy.linalg, name)
        counts = {}
        for label, path in (("circle", circle_file), ("ellipse", ellipse_file)):
            calls.clear()
            assert main(["probe", "--curve", path, "--n", str(n),
                         "--out", str(tmp_path / label)]) == 0
            counts[label] = collections.Counter(calls)
        assert counts == {
            "circle": {"boundary_matrix": 1, "eigh": 2},
            "ellipse": {"boundary_matrix": 1, "eigh": 2},
        }

    def test_circle_probe_takes_no_eigensolve_of_b(self, circle_file, tmp_path,
                                                    monkeypatch):
        # the SPECTRUM_MARGIN check reads B's spectrum on the circle from the
        # FFT: no eigensolver, numpy's or scipy's, sees B(lam) itself
        bmat = boundary_matrix(-1.0, make_grid(make_circle(1.0), 64))
        seen = []
        for module, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"),
                             (scipy.linalg, "eigh"), (scipy.linalg, "eigvalsh")):
            def watched(mat, *args, _real=getattr(module, name), **kwargs):
                seen.append(np.array_equal(mat, bmat))
                return _real(mat, *args, **kwargs)

            monkeypatch.setattr(module, name, watched)
        assert main(["probe", "--curve", circle_file, "--n", "64", "--lambda=-1",
                     "--out", str(tmp_path)]) == 0
        assert seen and not any(seen)

    def test_no_numpy_linalg_call_on_matrices(self, ellipse_file, tmp_path, monkeypatch):
        # a probe's dense linear algebra runs in scipy's BLAS pool: every
        # numpy.linalg function is counted with the shapes of its matrix
        # arguments, and only norms of point arrays are seen; the Gauss
        # rules are built once at import, so no 10 x 10 eigvalsh of one is
        # taken while the Fourier curve loads
        n = 64
        calls = []
        for name in np.linalg.__all__:
            real = getattr(np.linalg, name)
            if isinstance(real, type) or not callable(real):
                continue

            def counted(*args, _name=name, _real=real, **kwargs):
                calls.append((_name, [np.shape(a) for a in args if np.ndim(a) == 2]))
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        assert main(["probe", "--curve", ellipse_file, "--n", str(n),
                     "--out", str(tmp_path)]) == 0
        assert calls and ("eigvalsh", [(10, 10)]) not in calls
        assert not [call for call in calls if (n, n) in call[1]]


    def test_one_gram_build_per_probe(self, ellipse_file, tmp_path, monkeypatch):
        # both probes read one kept X, and neither factors it in place
        built = []
        real = resolvent_mod.boundary_derivative

        def derivative(lam, grid, out=None):
            built.append(lam)
            return real(lam, grid, out)

        monkeypatch.setattr(resolvent_mod, "boundary_derivative", derivative)
        assert main(["probe", "--curve", ellipse_file, "--n", "64",
                     "--out", str(tmp_path)]) == 0
        assert built == [-1.0]


class TestInProcess:
    """`main` keeps one parser per process and no state between queries,
    which the in-process benchmark relies on."""

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--n", "128", "--lambda=0,-1"],
        ["bound-states", "--n", "128", "--alpha=-0.23,-0.15"],
        ["scattering", "--n", "128", "--alpha=-0.3", "--lambda=0.5,1"],
        ["isoperimetric", "--n", "128", "--alpha=-0.15"],
        ["probe", "--n", "64"],
        ["d-sigma", "--n", "128"],
    ], ids=lambda argv: argv[0])
    def test_grid_freed_when_main_returns(self, ellipse_file, tmp_path, monkeypatch, argv):
        # without the cyclic collector, so only reference counts free them:
        # the curve and its arc table, and the grid with B, B' and the
        # LDL^T copy of a search, go when main returns
        kept = []
        real = cli_mod.make_grid

        def make_grid(curve, n):
            grid = real(curve, n)
            kept.extend([weakref.ref(curve), weakref.ref(grid)])
            return grid

        monkeypatch.setattr(cli_mod, "make_grid", make_grid)
        gc.disable()
        try:
            assert main(argv + ["--curve", ellipse_file, "--out", str(tmp_path)]) == 0
            assert len(kept) == 2
            assert [ref() for ref in kept] == [None, None]
        finally:
            gc.enable()

    def test_successive_calls_write_the_tables_of_fresh_processes(self, ellipse_file,
                                                                   tmp_path):
        queries = [
            ["spectrum", "--lambda=0,-1"],
            ["bound-states", "--alpha=-0.23,-0.15"],
            ["probe"],
            ["scattering", "--alpha=-0.3", "--lambda=0.5,1", "--dump-smatrix"],
            # a rank_tol that narrows the blocks, then the default again
            ["scattering", "--alpha=-0.3", "--lambda=0.5,1", "--dump-smatrix",
             "--tol-override", "rank_tol=1e-3"],
            ["scattering", "--alpha=-0.3", "--lambda=0.5,1", "--dump-smatrix"],
        ]
        src = str(pathlib.Path(curvedelta.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

        def tables(directory):
            return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}

        for i, query in enumerate(queries):
            argv = query + ["--curve", ellipse_file, "--n", "64"]
            subprocess.run([sys.executable, "-m", "curvedelta.cli", *argv,
                            "--out", str(tmp_path / f"process{i}")], env=env, check=True)
        for run in (1, 2):
            for i, query in enumerate(queries):
                argv = query + ["--curve", ellipse_file, "--n", "64"]
                assert main(argv + ["--out", str(tmp_path / f"run{run}-{i}")]) == 0
                assert tables(tmp_path / f"run{run}-{i}") == tables(tmp_path / f"process{i}")
        assert tables(tmp_path / "process4") != tables(tmp_path / "process5")


class TestCircleFFTPath:
    """The circle's spectra, counts, floors and roots come from its mode
    values: no dense eigensolve and no boundary matrix on the circle."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"eigh": 0, "boundary_matrix": 0}
        real_eigh, real_matrix = scipy.linalg.eigh, curvedelta.assembly.boundary_matrix

        def eigh(*args, **kwargs):
            calls["eigh"] += 1
            return real_eigh(*args, **kwargs)

        def matrix(*args, **kwargs):
            calls["boundary_matrix"] += 1
            return real_matrix(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", eigh)
        for module in (curvedelta.assembly, curvedelta.spectral, curvedelta.cli,
                       curvedelta.scattering, curvedelta.resolvent):
            if getattr(module, "boundary_matrix", None) is real_matrix:
                monkeypatch.setattr(module, "boundary_matrix", matrix)
        return calls

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--lambda", "0,-1,-16"],
        ["bound-states", "--alpha", "0.1,-0.23"],
    ], ids=lambda argv: argv[0])
    def test_no_eigh_and_no_matrix_on_the_circle(self, circle_file, tmp_path, calls, argv):
        assert main([argv[0], "--curve", circle_file, "--n", "256", *argv[1:],
                     "--out", str(tmp_path)]) == 0
        assert calls == {"eigh": 0, "boundary_matrix": 0}

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--lambda", "0,-1,-16"],
        ["bound-states", "--alpha", "0.1,-0.23"],
        ["isoperimetric", "--alpha=-0.15"],
        ["scattering", "--alpha=-0.3", "--lambda", "0.5,1"],
    ], ids=lambda argv: argv[0])
    def test_fourier_circle_takes_the_circle_paths(self, fourier_circle_file, tmp_path,
                                                   calls, argv):
        # the circle paths follow the grid's chords, not the file's kind
        assert main([argv[0], "--curve", fourier_circle_file, "--n", "256", *argv[1:],
                     "--out", str(tmp_path)]) == 0
        assert calls == {"eigh": 0, "boundary_matrix": 0}

    def test_isoperimetric_circle_half(self, ellipse_file, tmp_path, calls, monkeypatch):
        # the ellipse half assembles its own grid only; the circle half of
        # the comparison, run on its own, makes no call at all
        grids = []
        counted = curvedelta.spectral.boundary_matrix

        def matrix(lam, grid, out=None):
            grids.append(grid)
            return counted(lam, grid, out)

        monkeypatch.setattr(curvedelta.spectral, "boundary_matrix", matrix)
        assert main(["isoperimetric", "--curve", ellipse_file, "--n", "128",
                     "--alpha", "-0.15", "--out", str(tmp_path)]) == 0
        assert grids and not any(grid.is_circle for grid in grids)
        circle_grid = curvedelta.make_grid(curvedelta.make_circle(1.0), 256)
        calls.update(eigh=0, boundary_matrix=0)
        assert curvedelta.isoperimetric_compare(circle_grid, -0.15)[2] == 0.0
        assert calls == {"eigh": 0, "boundary_matrix": 0}

    def test_counters_see_the_dense_path(self, ellipse_file, tmp_path, calls):
        # at N = 64 the compression certificate cannot pass, which the bound
        # on its gap shows before T is solved: each energy solves only the
        # dense matrix
        assert main(["spectrum", "--curve", ellipse_file, "--n", "64",
                     "--lambda", "0,-1", "--out", str(tmp_path)]) == 0
        assert calls == {"eigh": 2, "boundary_matrix": 2}


class TestDSigma:
    def test_circle_value(self, circle_file, tmp_path, capsys):
        out = str(tmp_path)
        assert main(["d-sigma", "--curve", circle_file, "--n", "128",
                     "--out", out]) == 0
        payload = json.loads((tmp_path / "d_sigma.json").read_text())
        assert payload["value"] < 1e-12

    def test_ellipse_value(self, ellipse_file, tmp_path):
        out = str(tmp_path)
        assert main(["d-sigma", "--curve", ellipse_file, "--n", "128",
                     "--out", out]) == 0
        payload = json.loads((tmp_path / "d_sigma.json").read_text())
        assert payload["value"] > 0.0


@pytest.mark.parametrize("argv", [
    ["scattering", "--alpha", "-0.5", "--lambda", "inf"],
    ["bound-states", "--alpha", "nan"],
], ids=lambda argv: argv[0])
def test_non_finite_value_exits_2(ellipse_file, tmp_path, capsys, argv):
    # refused while parsing, before any kernel sees it and warns
    assert main([argv[0], "--curve", ellipse_file, "--n", "64", *argv[1:],
                 "--out", str(tmp_path)]) == 2
    assert "non-finite value" in capsys.readouterr().err


MALFORMED = [
    (["scattering", "--alpha", ","], "no number"),
    (["isoperimetric", "--alpha", ","], "no number"),
    (["probe", "--lambda", ","], "no number"),
    (["bound-states", "--alpha", ","], "no number"),
    (["spectrum", "--lambda", ","], "no number"),
    # an empty list is no list, not the default
    (["spectrum", "--lambda="], "no number"),
    (["scattering", "--alpha=-0.5", "--lambda="], "no number"),
    # an earlier command line's reference energies
    (["scattering", "--alpha=-0.5", "--eta="], "unrecognized arguments: --eta"),
    (["probe", "--alpha="], "no number"),
    (["scattering", "--alpha=-0.5,-0.3"], "--alpha takes one value"),
    (["probe", "--box-lo", "-3"], "unrecognized arguments: --box-lo"),
]


@pytest.mark.parametrize("argv, message", MALFORMED,
                         ids=[" ".join(argv) for argv, _ in MALFORMED])
def test_malformed_values_exit_2(circle_file, tmp_path, capsys, argv, message):
    assert main([argv[0], "--curve", circle_file, "--n", "16", *argv[1:],
                 "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(["spectrum", "bound-states", "scattering",
                                "isoperimetric", "probe", "d-sigma"]),
       option=st.sampled_from(["--alpha", "--lambda"]),
       parts=st.lists(st.sampled_from(["", "x", "inf", "1e400", "nan", "1", "2",
                                       "-0.5", "-0.3", "0.1"]), min_size=1, max_size=3))
def test_exit_code_contract(circle_file, tmp_path_factory, command, option, parts):
    # any value of any option on any command: an exit code, never an exception
    out = str(tmp_path_factory.mktemp("contract"))
    assert main([command, "--curve", circle_file, "--n", "16", *REQUIRED[command],
                 f"{option}={','.join(parts)}", "--out", out]) in (0, 2, 3, 4)


def test_unknown_tolerance_key(circle_file, tmp_path):
    assert main(["bound-states", "--curve", circle_file, "--alpha", "0.1",
                 "--tol-override", "bogus=1", "--out", str(tmp_path)]) == 2


# options each command needs to run, so an exit 2 comes from the option tested
REQUIRED = {"spectrum": [], "bound-states": ["--alpha", "0.1"],
            "scattering": ["--alpha", "-0.5"], "isoperimetric": ["--alpha", "-0.5"],
            "probe": [], "d-sigma": []}


@pytest.mark.parametrize("command, option", [
    ("spectrum", "--alpha"), ("spectrum", "--eta"),
    ("bound-states", "--lambda"), ("bound-states", "--eta"),
    ("isoperimetric", "--lambda"), ("isoperimetric", "--eta"),
    ("probe", "--eta"), ("scattering", "--eta"),
    ("d-sigma", "--alpha"), ("d-sigma", "--lambda"), ("d-sigma", "--eta"),
])
def test_unread_option_exits_2(circle_file, tmp_path, capsys, command, option):
    assert main([command, "--curve", circle_file, *REQUIRED[command], option, "-1",
                 "--out", str(tmp_path)]) == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["bound-states", "scattering", "isoperimetric"])
def test_missing_alpha_exits_2_before_the_curve_is_read(tmp_path, capsys, command):
    # the curve file does not exist, and the parser refuses first
    assert main([command, "--curve", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path)]) == 2
    assert "required: --alpha" in capsys.readouterr().err


def test_value_defaults_show_in_help(capsys):
    assert main(["scattering", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "(default 1)" in text and "--eta" not in text
    assert main(["probe", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "(default -0.5)" in text and "(default -1)" in text


@pytest.mark.parametrize("command, key", [
    ("spectrum", "root_tol"), ("spectrum", "rank_tol"),
    ("bound-states", "rank_tol"), ("scattering", "root_tol"),
    ("isoperimetric", "root_tol"), ("isoperimetric", "rank_tol"),
    ("probe", "root_tol"), ("probe", "rank_tol"),
    ("d-sigma", "root_tol"), ("d-sigma", "rank_tol"),
])
def test_unread_tolerance_key_exits_2(circle_file, tmp_path, capsys, command, key):
    assert main([command, "--curve", circle_file, *REQUIRED[command],
                 "--tol-override", f"{key}=1e-9", "--out", str(tmp_path)]) == 2
    assert f"reads no tolerance '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("command, key", [
    ("bound-states", "root_tol"), ("scattering", "rank_tol"), ("d-sigma", "reparam_tol"),
])
def test_read_tolerance_key_accepted(circle_file, tmp_path, command, key):
    assert main([command, "--curve", circle_file, "--n", "64", *REQUIRED[command],
                 "--tol-override", f"{key}=1e-9", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("command, key, value", [
    ("scattering", "rank_tol", "nan"), ("bound-states", "root_tol", "nan"),
    ("d-sigma", "reparam_tol", "inf"), ("bound-states", "root_tol", "0"),
    ("scattering", "rank_tol", "-1e-10"),
])
def test_tolerance_not_finite_and_positive_exits_2(ellipse_file, tmp_path, capsys,
                                                   command, key, value):
    # each would switch off the check it sets: rank_tol=nan kept no channel,
    # root_tol=nan passed every residual, reparam_tol=inf every unit-speed error
    assert main([command, "--curve", ellipse_file, "--n", "64", *REQUIRED[command],
                 "--tol-override", f"{key}={value}", "--out", str(tmp_path)]) == 2
    assert f"tolerance {key} must be finite and positive" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


NON_FINITE_CURVES = {
    "period NaN": '{"kind": "fourier", "cos": [[1, 0, 0]], "sin": [[0, 1, 0]], "period": NaN}',
    "period Infinity": '{"kind": "fourier", "cos": [[1, 0, 0]], "sin": [[0, 1, 0]], '
                       '"period": Infinity}',
    "cos NaN": '{"kind": "fourier", "cos": [[1, NaN, 0]], "sin": [[0, 1, 0]]}',
    "radius NaN": '{"kind": "circle", "radius": NaN}',
}


@pytest.mark.parametrize("text", NON_FINITE_CURVES.values(), ids=NON_FINITE_CURVES.keys())
def test_non_finite_curve_exits_2(tmp_path, capsys, text):
    # refused on load, before the arc table or any assembly sees it
    path = tmp_path / "curve.json"
    path.write_text(text)
    out = tmp_path / "out"
    assert main(["spectrum", "--curve", str(path), "--n", "16", "--out", str(out)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert list(out.glob("*")) == []


MALFORMED_CURVES = [
    pytest.param('{"kind": "fourier", "a0": [0, 0], "cos": [[1, 0, 0]], "sin": [[0, 1, 0]]}',
                 "malformed curve description", id="a0 of two entries"),
    pytest.param('{"kind": "circle", "radius": "big"}', "malformed curve description",
                 id="radius a string"),
    pytest.param('{"kind": "fourier", "cos": [[1, 0, 0]], "sin": [[0, 1, 0]], "period": "x"}',
                 "malformed curve description", id="period a string"),
    # the speed 2 pi / period overflows, and a tiny circle's acceleration
    # 1 / R: both refused before numpy warns of either
    pytest.param('{"kind": "fourier", "cos": [[1, 0, 0]], "sin": [[0, 1, 0]], "period": 2e-320}',
                 "curve derivatives overflow", id="period subnormal"),
    pytest.param('{"kind": "circle", "radius": 1e-300}', "curve derivatives overflow",
                 id="circle tiny"),
    # chords whose three squared components cdist sums could overflow:
    # refused on load, not at assembly on non-finite matrix entries
    pytest.param('{"kind": "circle", "radius": 1e155}', "curve chords overflow",
                 id="circle 1e155"),
    pytest.param('{"kind": "circle", "radius": 1e300}', "curve chords overflow",
                 id="circle 1e300"),
]


@pytest.mark.parametrize("text, message", MALFORMED_CURVES)
def test_malformed_curve_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "curve.json"
    path.write_text(text)
    out = tmp_path / "out"
    assert main(["spectrum", "--curve", str(path), "--n", "16", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err
    # a well-formed curve that the geometry refuses is not called malformed
    assert ("malformed" in err) is (message == "malformed curve description")
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("radius", [1e150, 1e153])
def test_huge_circle_exits_0(tmp_path, radius):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"kind": "circle", "radius": radius}))
    out = tmp_path / "out"
    assert main(["spectrum", "--curve", str(path), "--n", "16", "--out", str(out)]) == 0


def test_grid_too_large_for_memory_exits_2(ellipse_file, tmp_path, capsys, monkeypatch):
    # `spectrum --n 2000000` asks the compression for a (1000001, 2000000)
    # table, whose np.empty raises MemoryError: a configuration error naming
    # the grid size, not a traceback and exit 1.  Raised here by a stand-in,
    # since a real allocation of that size can succeed under overcommit and
    # then exhaust the memory.
    def oversized(lam, grid):
        raise MemoryError("Unable to allocate 14.6 TiB for an array with shape "
                          "(1000001, 2000000) and data type float64")

    monkeypatch.setattr(cli_mod, "boundary_spectrum", oversized)
    assert main(["spectrum", "--curve", ellipse_file, "--n", "64", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == ("configuration error: a grid of 64 nodes does not fit "
                                       "in memory\n")


@pytest.mark.parametrize("command, solver, driver", [
    (["probe"], "eigh", "evd"),                                   # layer_singular_values
    (["bound-states", "--alpha=-0.23"], "eigh", "evr"),           # _Operator.settle
    (["scattering", "--alpha=-0.3", "--lambda=1"], "svdvals", None),   # _widened
])
def test_solver_breakdown_exits_3(ellipse_file, tmp_path, capsys, monkeypatch, command, solver,
                                  driver):
    # a solver's LinAlgError is a numerical failure, which main maps to
    # exit 3 in one place: each of these escaped as a traceback
    real = getattr(scipy.linalg, solver)

    def breaking(*args, **kwargs):
        if driver is None or kwargs.get("driver") == driver:
            raise scipy.linalg.LinAlgError(f"{solver} did not converge")
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, solver, breaking)
    assert main([command[0], "--curve", ellipse_file, "--n", "64", *command[1:],
                 "--out", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"numerical failure: {solver} did not converge\n"
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("case", ["curve a directory", "curve not UTF-8", "out under a file"])
def test_unreadable_path_exits_2(tmp_path, capsys, case):
    # each raised out of main with a traceback (IsADirectoryError,
    # UnicodeDecodeError, NotADirectoryError) before it was a configuration
    # error
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps(curve_to_json_dict(make_circle(1.0))))
    out = tmp_path / "out"
    if case == "curve a directory":
        curve = tmp_path
    elif case == "curve not UTF-8":
        curve.write_bytes(b"\xff\xfe\x00")
    else:
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "sub"
    assert main(["spectrum", "--curve", str(curve), "--n", "16", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "Traceback" not in err


# -- the cross-thread table comparison of CI ----------------------------------


def _write_table(root, rows):
    root.mkdir(parents=True, exist_ok=True)
    text = "# bound states n=256\nalpha,k,energy,residual\n"
    (root / "bound_states.csv").write_text(text + "".join(f"{r}\n" for r in rows))


TABLE = ["-0.23,1,-5.5,0", "-0.23,2,-4,0"]


@pytest.mark.parametrize("first, second, exit_code", [
    # the energy column's scale is 5.5: a change of 6e-14 is 1.1e-14 of it
    (TABLE, ["-0.23,1,-5.5,0", "-0.23,2,-4.00000000000006,2e-16"], 0),
    (TABLE, ["-0.23,1,-5.5,0", "-0.23,2,-4.000000000001,0"], 1),
    # indices and counts must agree exactly, residuals are not compared
    (TABLE, ["-0.23,1,-5.5,0", "-0.23,3,-4,0"], 1),
    (TABLE, ["-0.23,1,-5.5,1e-16", "-0.23,2,-4,9e-17"], 0),
    (TABLE, ["-0.23,1,-5.5,0"], 1),
    # a non-finite cell must be the same text in both tables, and it
    # neither hides nor sets the scale of the finite cells of its column
    (TABLE, ["-0.23,1,nan,0", "-0.23,2,-4,0"], 1),
    (TABLE, ["-0.23,1,-5.5,0", "-0.23,2,inf,0"], 1),
    (["-0.23,1,nan,0", "-0.23,2,-4,0"], ["-0.23,1,nan,0", "-0.23,2,-4,0"], 0),
    (["-0.23,1,nan,0", "-0.23,2,-4,0"], ["-0.23,1,nan,0", "-0.23,2,-3,0"], 1),
    # an empty cell matches only an empty cell, and the column's numbers
    # are still compared within RTOL, as counts.csv's asymptotic bounds
    (["-0.23,1,,0", "-0.23,2,-4,0"], ["-0.23,1,,0", "-0.23,2,-4.00000000000006,0"], 0),
    (["-0.23,1,,0", "-0.23,2,-4,0"], ["-0.23,1,,0", "-0.23,2,-4.000000000001,0"], 1),
    (["-0.23,1,,0", "-0.23,2,-4,0"], ["-0.23,1,-5.5,0", "-0.23,2,-4,0"], 1),
    (TABLE, ["-0.23,1,-5.5,0", "-0.23,,-4,0"], 1),
])
def test_table_diff(tmp_path, capsys, first, second, exit_code):
    _write_table(tmp_path / "a", first)
    _write_table(tmp_path / "b", second)
    assert table_diff.main([str(tmp_path / "a"), str(tmp_path / "b")]) == exit_code
    assert "bound_states.csv" in capsys.readouterr().out


def test_table_difference_is_relative_to_the_column_scale(tmp_path):
    _write_table(tmp_path / "a", TABLE)
    _write_table(tmp_path / "b", ["-0.23,1,-5.5,0", "-0.23,2,-4.00000000000006,2e-16"])
    worst = table_diff.table_difference(tmp_path / "a" / "bound_states.csv",
                                        tmp_path / "b" / "bound_states.csv")
    assert worst == pytest.approx(6e-14 / 5.5, rel=1e-2)


def _write_scattering(root, summary, entry):
    root.mkdir(parents=True, exist_ok=True)
    (root / "scattering.csv").write_text(
        "# scattering alpha=-0.3 n=256\n"
        "lam,retained_dim,unitarity_defect,min_channel_eigenvalue,condition\n"
        f"{summary}\n")
    (root / "smatrix_0.csv").write_text(
        "# smatrix lam=1 alpha=-0.3\nrow,col,re,im\n"
        f"1,1,{entry},-0.8\n1,2,0.1,0.2\n")


@pytest.mark.parametrize("summary, entry, exit_code", [
    # the defect and the condition estimate are not compared
    ("1,15,3.1e-12,0,1.79e+03", "0.6", 0),
    # a block entry may move by 2e-11 of its column's scale, not by 1e-9
    ("1,15,3.08e-12,0,1.78e+03", "0.60000000002", 0),
    ("1,15,3.08e-12,0,1.78e+03", "0.600000001", 1),
    # the retained dimension must agree exactly
    ("1,16,3.08e-12,0,1.78e+03", "0.6", 1),
])
def test_table_diff_scattering(tmp_path, summary, entry, exit_code):
    _write_scattering(tmp_path / "a", "1,15,3.08e-12,0,1.78e+03", "0.6")
    _write_scattering(tmp_path / "b", summary, entry)
    assert table_diff.main([str(tmp_path / "a"), str(tmp_path / "b")]) == exit_code


def _write_probe(root, correction, layer):
    root.mkdir(parents=True, exist_ok=True)
    for name, head, value in (("probe_correction.csv", "correction", correction),
                              ("probe_layer.csv", "layer", layer)):
        (root / name).write_text(f"# {head} singular values lam=-1\nk,s\n1,0.8\n2,{value}\n")


@pytest.mark.parametrize("correction, layer, exit_code", [
    # a correction singular value may move by 6e-12 of its column's scale,
    # not by 1e-9; the layer table is held to RTOL
    ("0.5", "0.2", 0),
    ("0.500000000005", "0.2", 0),
    ("0.5000000005", "0.2", 1),
    ("0.5", "0.200000000005", 1),
])
def test_table_diff_probe(tmp_path, correction, layer, exit_code):
    _write_probe(tmp_path / "a", "0.5", "0.2")
    _write_probe(tmp_path / "b", correction, layer)
    assert table_diff.main([str(tmp_path / "a"), str(tmp_path / "b")]) == exit_code
