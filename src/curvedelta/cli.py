"""Command-line front end.

Commands: spectrum | bound-states | scattering | isoperimetric | probe | d-sigma.
Exit codes: 0 success, 2 configuration error, 3 numerical failure (a
refusal, an energy the grid cannot resolve among them, or a solver's
LinAlgError), 4 invariant violation.  Numbers are written with 15
significant digits and no time-dependent fields, so identical
configurations produce byte-identical output files at a fixed BLAS thread
count; across thread counts the last digits can differ.  The one exception
is scattering's `condition`, an estimate written to 3 significant digits:
LAPACK's ?sycon can return it with different last digits in different
processes from bitwise identical factors.  Each command declares only the
options and the --tol-override keys it reads; any other exits 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np
from scipy.linalg import LinAlgError

from .assembly import _circle_modes, _circle_waves
from .curves import REPARAM_TOL, circle_deviation, curve_from_json_dict, make_grid
from .errors import ConfigError, CurveError, InvariantError, NumericsError, check_tolerance
from .resolvent import (FIT_WINDOW, correction_singular_values, fit_decay_slope,
                        layer_singular_values)
from .scattering import RANK_TOL, UNITARITY_TOL, scattering_block
from .spectral import (ROOT_TOL, boundary_spectrum, count_bound_states,
                       find_bound_states, isoperimetric_compare, trusted_count)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICS = 3
EXIT_INVARIANT = 4


def _fmt(x) -> str:
    return format(float(x), ".15g")


def _float_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise ConfigError(f"bad numeric list {text!r}") from exc
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"non-finite value in {text!r}")
    if not values:
        raise ConfigError(f"no number in {text!r}")
    return values


def _one_float(text: str, flag: str) -> float:
    """The one number of a single-valued option."""
    values = _float_list(text)
    if len(values) != 1:
        raise ConfigError(f"{flag} takes one value, got {text!r}")
    return values[0]


def _load_grid(args, tols: dict):
    """The grid of --n nodes on the curve of the --curve file."""
    path = args.curve
    if not os.path.exists(path):
        raise ConfigError(f"curve file not found: {path}")
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"curve file is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"curve file cannot be read: {exc}") from exc
    return make_grid(curve_from_json_dict(spec, reparam_tol=tols["reparam_tol"]), args.n)


def _make_out(path: str) -> None:
    """Create the --out directory, as a configuration error where the
    path cannot be a directory."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory cannot be made: {exc}") from exc


def _write_rows(path: str, meta: str, header: list[str], rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# {meta}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, (int, float, np.floating))
                              else str(v) for v in row) + "\n")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _tolerances(args) -> dict:
    """The subcommand's tolerances: its defaults, with --tol-override applied."""
    out = dict(args.tolerances)
    for item in args.tol_override or []:
        if "=" not in item:
            raise ConfigError(f"bad tolerance override {item!r}, expected KEY=VAL")
        key, val = item.split("=", 1)
        if key not in out:
            raise ConfigError(f"{args.command} reads no tolerance {key!r}; "
                              f"it reads {sorted(out)}")
        try:
            out[key] = float(val)
        except ValueError as exc:
            raise ConfigError(f"bad tolerance value in {item!r}") from exc
        check_tolerance(key, out[key])
    return out


def cmd_spectrum(args, grid, tols) -> None:
    lams = _float_list(args.lam)
    if any(lam > 0 for lam in lams):
        raise ConfigError("spectrum energies must satisfy lam <= 0")
    trusted = trusted_count(grid.n)
    summary = {}
    for i, lam in enumerate(lams):
        spec = boundary_spectrum(lam, grid)
        path = os.path.join(args.out, f"spectrum_{i}.csv")
        entry = {"lam": lam, "file": os.path.basename(path)}
        header, columns = ["k", "nu"], [range(1, trusted + 1), spec]
        if grid.is_circle and lam == 0.0:
            # nu_0, nu_1, nu_1, nu_2, nu_2, ...: each pair's level twice
            closed = _circle_modes(grid)[_circle_waves(grid.n)[:trusted]]
            header.append("nu_closed_form")
            columns.append(closed)
            entry["max_closed_form_deviation"] = float(np.max(np.abs(spec - closed)))
        _write_rows(path, f"spectrum lam={_fmt(lam)} n={grid.n}", header, zip(*columns))
        summary[str(i)] = entry
    _write_json(os.path.join(args.out, "spectrum_summary.json"), summary)


def cmd_bound_states(args, grid, tols) -> None:
    alphas = _float_list(args.alpha)
    state_rows, count_rows = [], []
    for alpha in alphas:
        report = count_bound_states(grid, alpha)
        states = find_bound_states(grid, alpha, max_states=args.max_states,
                                   root_tol=tols["root_tol"])
        cap = report.count if args.max_states is None else args.max_states
        if len(states) != min(report.count, cap):
            raise InvariantError(
                f"root count {len(states)} disagrees with the eigenvalue count "
                f"{report.count} at alpha={alpha:g}")
        for st in states:
            state_rows.append([alpha, st.index, st.energy, st.residual])
        count_rows.append([alpha, report.count, report.deviation,
                           report.r_index, report.l_index, report.lower,
                           report.upper,
                           report.asym_lower if report.asym_lower is not None else "",
                           report.asym_upper if report.asym_upper is not None else "",
                           int(report.endpoint_flag)])
    _write_rows(os.path.join(args.out, "bound_states.csv"),
                f"bound states n={grid.n}",
                ["alpha", "k", "energy", "residual"], state_rows)
    _write_rows(os.path.join(args.out, "counts.csv"),
                f"counts n={grid.n}",
                ["alpha", "count", "deviation", "r", "l", "lower", "upper",
                 "asym_lower", "asym_upper", "endpoint_flag"], count_rows)


def cmd_scattering(args, grid, tols) -> None:
    alpha = _one_float(args.alpha, "--alpha")
    lams = _float_list(args.lam)
    if any(lam < 0 for lam in lams):
        raise ConfigError("scattering energies must satisfy lam >= 0")
    rows = []
    for i, lam in enumerate(lams):
        block = scattering_block(grid, lam, alpha, rank_tol=tols["rank_tol"])
        rows.append([lam, block.retained_dim, block.unitarity_defect,
                     block.min_channel_eigenvalue, format(block.condition, ".3g")])
        if args.dump_smatrix:
            entries = [[r + 1, c + 1, block.matrix[r, c].real, block.matrix[r, c].imag]
                       for r in range(block.retained_dim)
                       for c in range(block.retained_dim)]
            _write_rows(os.path.join(args.out, f"smatrix_{i}.csv"),
                        f"smatrix lam={_fmt(lam)} alpha={_fmt(alpha)}",
                        ["row", "col", "re", "im"], entries)
        if block.retained_dim and block.unitarity_defect > UNITARITY_TOL:
            raise InvariantError(
                f"unitarity defect {block.unitarity_defect:.2e} at lam={lam:g}")
    _write_rows(os.path.join(args.out, "scattering.csv"),
                f"scattering alpha={_fmt(alpha)} n={grid.n}",
                ["lam", "retained_dim", "unitarity_defect",
                 "min_channel_eigenvalue", "condition"], rows)


def cmd_isoperimetric(args, grid, tols) -> None:
    alpha = _one_float(args.alpha, "--alpha")
    lam_curve, lam_circle, gap = isoperimetric_compare(grid, alpha)
    _write_rows(os.path.join(args.out, "isoperimetric.csv"),
                f"isoperimetric alpha={_fmt(alpha)} n={grid.n}",
                ["alpha", "energy_curve", "energy_circle", "gap"],
                [[alpha, lam_curve, lam_circle, gap]])
    if grid.is_circle:
        if gap != 0:
            raise InvariantError(f"circle compared with itself: gap {gap:.3e} not zero")
    elif gap <= 0:
        raise InvariantError(f"principal-eigenvalue gap {gap:.3e} not positive")


def cmd_probe(args, grid, tols) -> None:
    lam = _one_float(args.lam, "--lambda")
    alpha = _one_float(args.alpha, "--alpha")
    s_corr = correction_singular_values(grid, lam, alpha)
    s_layer = layer_singular_values(grid, lam)
    _write_rows(os.path.join(args.out, "probe_correction.csv"),
                f"correction singular values lam={_fmt(lam)} alpha={_fmt(alpha)}",
                ["k", "s"], enumerate(s_corr, 1))
    _write_rows(os.path.join(args.out, "probe_layer.csv"),
                f"layer singular values lam={_fmt(lam)}",
                ["k", "s"], enumerate(s_layer, 1))
    summary = {
        "lam": lam,
        "alpha": alpha,
        "fit_window": list(FIT_WINDOW),
        # the window is not scale-free: where it falls on the decay is set by kappa L
        "kappa_length": float(np.sqrt(-lam) * grid.length),
        "slope_correction": fit_decay_slope(s_corr),
        "slope_layer": fit_decay_slope(s_layer),
    }
    _write_json(os.path.join(args.out, "probe_summary.json"), summary)


def cmd_d_sigma(args, grid, tols) -> None:
    value = circle_deviation(grid)
    _write_json(os.path.join(args.out, "d_sigma.json"),
                {"n": grid.n, "value": value})
    sys.stdout.write(_fmt(value) + "\n")


# value options a subcommand may declare: flag -> (attribute, help)
VALUE_OPTIONS = {
    "--alpha": ("alpha", "coupling value(s), comma separated"),
    "--lambda": ("lam", "energy value(s), comma separated"),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.  Parsing keeps no
    state between calls: each returns a new namespace, and the one mutable
    default, a subcommand's tolerance table, is copied by `_tolerances`
    before an override is applied."""
    parser = argparse.ArgumentParser(
        prog="curvedelta",
        description="Spectra, bound states and scattering of a delta-interaction "
                    "supported on a closed curve in R^3.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, values=None, tolerances=None):
        """Subparser with the common options, the value options it reads,
        each mapped to its default or to None where it is required, and the
        defaults of the tolerances it reads (reparam_tol always)."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--curve", required=True, help="curve JSON file")
        p.add_argument("--n", type=int, default=256, help="grid size (even)")
        for flag, default in (values or {}).items():
            dest, text = VALUE_OPTIONS[flag]
            p.add_argument(flag, dest=dest, default=default, required=default is None,
                           help=text if default is None else f"{text} (default {default})")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--tol-override", action="append",
                       help="KEY=VAL tolerance override (repeatable)")
        p.set_defaults(func=func,
                       tolerances={"reparam_tol": REPARAM_TOL, **(tolerances or {})})
        return p

    command("spectrum", cmd_spectrum, "eigenvalue tables per energy", {"--lambda": "0"})

    p = command("bound-states", cmd_bound_states, "bound states and counting per alpha",
                {"--alpha": None}, {"root_tol": ROOT_TOL})
    p.add_argument("--max-states", type=int, default=None)

    p = command("scattering", cmd_scattering, "scattering block per energy",
                {"--alpha": None, "--lambda": "1"},
                {"rank_tol": RANK_TOL})
    p.add_argument("--dump-smatrix", action="store_true")

    command("isoperimetric", cmd_isoperimetric, "principal eigenvalue vs the circle",
            {"--alpha": None})

    p = command("probe", cmd_probe, "singular-value decay of the resolvent correction",
                {"--alpha": "-0.5", "--lambda": "-1"})
    # accepted for older command lines; the exact probe samples no box
    p.add_argument("--box-n", type=int, default=24, help="no effect")

    command("d-sigma", cmd_d_sigma, "kernel deviation from the equal-length circle")

    return parser


def main(argv=None) -> int:
    """One query: parse, read the tolerances, load the grid, run the
    subcommand on it and map the outcome to an exit code.  Only the call
    refers to the grid, so it and all that is kept on it go when the
    subcommand returns."""
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        _make_out(args.out)
        tols = _tolerances(args)
        args.func(args, _load_grid(args, tols), tols)
        return EXIT_OK
    except (ConfigError, CurveError) as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG
    except (NumericsError, LinAlgError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICS
    except InvariantError as exc:
        sys.stderr.write(f"invariant violation: {exc}\n")
        return EXIT_INVARIANT
    except MemoryError:
        sys.stderr.write(f"configuration error: a grid of {args.n} nodes does not fit in memory\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
