"""Minor page faults of the bound-state search and of a curve load, counted
in a fresh process.

At N = 256 every N x N array of the root search (B, B', the copy ?sytrf
factors) is 512 KB.  Allocated and freed at each energy, such arrays are
handed back to the system whenever the C allocator trims its heap, and
faulted in afresh at the next energy: 5.3k minor faults per
`find_bound_states` call, and 22k while the kernels also allocated their
temporaries, unless some earlier larger temporary happened to raise the
allocator's thresholds.  Instead each operator owns its buffers and the
search hands them from each energy's operator to the next, so one call
allocates them once, and the curve checks invert the stencil's four
offsets one at a time, so no temporary of a load is larger than the
allocator's mapping threshold, and neither depends on what ran before
it.  A child process counts the faults with `resource.getrusage`, so
that this process's history does not enter.
"""
import functools
import json
import os
import pathlib
import subprocess
import sys

import pytest

import curvedelta

pytestmark = pytest.mark.skipif(sys.platform == "win32", reason="resource is POSIX only")

CHILD = """
import json, resource, sys
from curvedelta import (curve_from_json_dict, curve_to_json_dict, find_bound_states,
                        make_ellipse, make_grid)
from oracles import seeded_fourier_curve


def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def load(spec):
    return make_grid(curve_from_json_dict(spec), 256)


def counted(call):
    start = faults()
    call()
    return faults() - start


specs = [curve_to_json_dict(seeded_fourier_curve(seed)) for seed in range(1, 1 + int(sys.argv[1]))]
loads = [counted(lambda: load(spec)) for spec in specs]
grid = load(curve_to_json_dict(make_ellipse(2.0, 1.0)))
find_bound_states(grid, -0.15)
searches = [counted(lambda: find_bound_states(grid, -0.15)) for _ in range(3)]
print(json.dumps({"loads": loads, "searches": searches}))
"""


@functools.lru_cache(maxsize=None)
def _child(curves_before: int) -> dict:
    paths = [str(pathlib.Path(curvedelta.__file__).parents[1]), str(pathlib.Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        paths + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", CHILD, str(curves_before)], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("curves_before", [0, 10], ids=["no curve before", "10 curves before"])
def test_root_search_faults_in_its_buffers_once(curves_before):
    # one search faults in its three 512 KB buffers, 384 pages, and a few
    # temporaries (about 480 in all), and no page per energy; with new
    # N x N arrays at every energy it takes 5.3k
    assert max(_child(curves_before)["searches"]) < 1000


def test_curve_load_faults():
    # after the first load, which touches the allocator's heap first, a load
    # keeps its temporaries below the allocator's mapping threshold (0-1
    # faults); inverting the stencil's four offsets in one call took about
    # 232, and the checks' earlier Gauss panels on all 1024 nodes at once
    # about 2.4k
    assert max(_child(10)["loads"][1:]) < 500
