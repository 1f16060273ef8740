"""Seeded inputs and query lists for the three benchmark workloads.

Every workload is a stream of CLI queries.  The head of each stream holds
the deterministic curves (unit circle, 2:1 ellipse, the sandwich-defect
reproduction curve) once per (curve, N, alpha/lambda); the tail cycles over
fresh seeded Fourier curves, so no (curve, N, alpha/lambda) query repeats
within a run.  A run takes the shortest prefix of the stream whose nominal
cost (seconds per query measured on the seed code, 2-core Xeon, 2 BLAS
threads) reaches LIST_FILL of the run length, so the same --seconds always
gives the same query list and wall_s is the time to solve that fixed list.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from curvedelta.curves import (Curve, curve_to_json_dict, make_ellipse,
                               reparametrize_arclength, scale_to_length)
from curvedelta.errors import CurveError

LENGTH = 2.0 * math.pi        # every curve is scaled to this length (R = 1)
FOURIER_AMPLITUDE = 0.12      # std of the mode-2/3 perturbation of the circle
DEFECT_SEED = 7               # first draw of this seed reproduces the sandwich defect
LIST_FILL = 0.9

DEFECT_ALPHA = -0.2
SPECTRUM_LAMBDAS = "0,-1,-4,-16"
SCATTERING_LAMBDAS = "0.5,1,2"
SCATTERING_ALPHA = "-0.5"
RANDOM = "random"


@dataclass(frozen=True)
class Query:
    command: str
    curve: str        # "circle", "ellipse", "defect" or RANDOM (a fresh seeded curve)
    n: int
    alpha: float | None = None
    nominal_s: float = 1.0

    def argv(self, curve_path: str, out_dir: str) -> list[str]:
        args = [self.command, "--curve", curve_path, "--n", str(self.n),
                "--out", out_dir]
        if self.command == "spectrum":
            args += ["--lambda", SPECTRUM_LAMBDAS]
        elif self.command == "scattering":
            args += ["--alpha", SCATTERING_ALPHA, "--lambda", SCATTERING_LAMBDAS]
        elif self.command == "probe":
            args += ["--box-n", "24"]
        else:
            args += ["--alpha", repr(self.alpha)]
        return args


def fourier_curve(rng: np.random.Generator) -> Curve:
    """Unit circle plus N(0, 0.12^2) modes 2-3 (cos block, then sin block),
    scaled to length 2 pi; not yet arc-length parametrized."""
    cos = np.zeros((3, 3))
    sin = np.zeros((3, 3))
    cos[0, 0] = sin[0, 1] = 1.0
    cos[1:3] += FOURIER_AMPLITUDE * rng.standard_normal((2, 3))
    sin[1:3] += FOURIER_AMPLITUDE * rng.standard_normal((2, 3))
    return scale_to_length(Curve(np.zeros(3), cos, sin, 2.0 * math.pi), LENGTH)


def draw_valid_curve(rng: np.random.Generator) -> Curve:
    """Next draw that the library's own arc-length reparametrization accepts.

    Only CurveError triggers a redraw; the query outcome never does."""
    while True:
        raw = fourier_curve(rng)
        try:
            reparametrize_arclength(raw)
        except CurveError:
            continue
        return raw


# Nominal seconds per query on the seed code.  The keys of STATE_S are the
# bound-states alpha list: 1, 1, 3 and 5 states on the circle and on the
# seeded curves.  Each head is ordered so that the median query at
# --seconds 30 falls inside one large group of similar queries
# (isoperimetric, N = 1024 spectra, probes), which keeps query_p50_s from
# jumping between query kinds.
STATE_S = {0.1: 1.3, -0.05: 1.3, -0.15: 3.9, -0.23: 6.7}
ISO_S = 2.1


def _bound_states_stream():
    yield Query("bound-states", "circle", 256, 0.1, STATE_S[0.1])
    yield Query("isoperimetric", "ellipse", 256, -0.05, ISO_S)
    yield Query("bound-states", "ellipse", 256, -0.15, STATE_S[-0.15])
    yield Query("isoperimetric", RANDOM, 256, -0.15, ISO_S)
    yield Query("bound-states", RANDOM, 256, -0.05, STATE_S[-0.05])
    yield Query("bound-states", "defect", 256, DEFECT_ALPHA, 0.3)
    yield Query("isoperimetric", RANDOM, 256, -0.23, ISO_S)
    yield Query("bound-states", RANDOM, 256, -0.23, STATE_S[-0.23])
    for alpha in itertools.cycle(STATE_S):
        yield Query("isoperimetric", RANDOM, 256, alpha, ISO_S)
        yield Query("bound-states", RANDOM, 256, alpha, STATE_S[alpha])


def _spectrum_stream():
    yield Query("spectrum", "circle", 2048, nominal_s=6.0)
    yield Query("spectrum", "ellipse", 1024, nominal_s=1.6)
    yield Query("spectrum", RANDOM, 2048, nominal_s=8.2)
    yield Query("spectrum", "circle", 1024, nominal_s=1.2)
    while True:
        yield Query("spectrum", RANDOM, 1024, nominal_s=1.6)


def _continuum_stream():
    yield Query("scattering", "circle", 1024, nominal_s=4.6)
    yield Query("probe", "circle", 256, nominal_s=1.35)
    yield Query("scattering", "ellipse", 1024, nominal_s=4.6)
    yield Query("probe", "ellipse", 256, nominal_s=1.35)
    while True:
        yield Query("probe", RANDOM, 256, nominal_s=1.35)
        yield Query("scattering", RANDOM, 1024, nominal_s=4.6)
        yield Query("probe", RANDOM, 256, nominal_s=1.35)
        yield Query("probe", RANDOM, 256, nominal_s=1.35)


STREAMS = {
    "bound-states": _bound_states_stream,
    "spectrum-large": _spectrum_stream,
    "continuum": _continuum_stream,
}


def query_list(workload: str, seconds: float) -> list[Query]:
    """Shortest stream prefix whose nominal cost reaches LIST_FILL * seconds."""
    out, total = [], 0.0
    for query in STREAMS[workload]():
        if len(out) >= 2 and total >= LIST_FILL * seconds:
            break
        out.append(query)
        total += query.nominal_s
    return out


def build(workload: str, seed: int, seconds: float, work_dir: str):
    """Write the curve JSON files of one run; return (queries, paths).

    `paths[i]` is the curve file of `queries[i]`.  Seeded curves are drawn
    in query order from default_rng(seed), one fresh curve per query."""
    queries = query_list(workload, seconds)
    rng = np.random.default_rng(seed)
    specs = {
        "circle": {"kind": "circle", "radius": LENGTH / (2.0 * math.pi)},
        "ellipse": curve_to_json_dict(scale_to_length(make_ellipse(2.0, 1.0), LENGTH)),
    }
    with open(os.path.join(work_dir, "circle.json"), "w") as fh:
        json.dump(specs["circle"], fh)        # also the warm-up query's curve
    paths = []
    for i, query in enumerate(queries):
        if query.curve == RANDOM:
            name, spec = f"seeded_{i}", curve_to_json_dict(draw_valid_curve(rng))
        elif query.curve == "defect":
            name = "defect"
            spec = curve_to_json_dict(draw_valid_curve(np.random.default_rng(DEFECT_SEED)))
        else:
            name, spec = query.curve, specs[query.curve]
        path = os.path.join(work_dir, f"{name}.json")
        if not os.path.exists(path):
            with open(path, "w") as fh:
                json.dump(spec, fh)
        paths.append(path)
    return queries, paths
