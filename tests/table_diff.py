"""Compare the CSV tables of two CLI output directories within a relative
tolerance, for tables that may differ in their last digits (written at
different BLAS thread counts, say).

    python3 tests/table_diff.py DIR_A DIR_B

Every `*.csv` under DIR_A must exist under DIR_B, with the same `#` meta
line, header and number of rows, and DIR_B must hold no other table.
An empty cell (a bound that does not apply) matches only an empty cell.
A cell that is not a float (an index, a count, a flag) must be the same
text in both, and so must a float cell that is not finite (nan, inf).
Finite float cells must agree within |a - b| <= RTOL s, where s is the
largest finite magnitude in their column of either table: an
eigenvalue's rounding is relative to the norm of its operator, not to
its own size, which is near zero for some.  The `residual` column is not
compared: a residual |nu_k - alpha| is rounding by construction, below
eps ||B||, and its digits carry no information.  Prints the largest
relative difference of each table and exits 1 when one exceeds RTOL.
"""

import argparse
import csv
import math
import pathlib
import sys

UNCOMPARED = {"residual"}
# The spectrum and bound-state tables of the CI step differ between one and
# two BLAS threads by at most 3.8e-15 of a column's scale (README, "Command
# line"); 1e-13 leaves room for other BLAS builds and still catches any
# change of an answer.
RTOL = 1e-13


def _is_integer(text: str) -> bool:
    return text.lstrip("-").isdigit()


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def table_difference(a: pathlib.Path, b: pathlib.Path) -> float:
    """The largest difference between two tables' float cells, relative to
    the largest magnitude in its column; raises ValueError when their
    layout or any other cell differs."""
    rows_a = list(csv.reader(a.read_text().splitlines()))
    rows_b = list(csv.reader(b.read_text().splitlines()))
    if rows_a[:2] != rows_b[:2] or len(rows_a) != len(rows_b):
        raise ValueError(f"{a.name}: meta line, header or row count differs")
    worst = 0.0
    for name, *cells in zip(rows_a[1], *rows_a[2:], *rows_b[2:], strict=True):
        if name in UNCOMPARED:
            continue
        half = len(cells) // 2
        texts = [(x, y) for x, y in zip(cells[:half], cells[half:]) if x or y]
        if not all(x and y for x, y in texts):
            raise ValueError(f"{a.name}: column {name} differs in an empty cell")
        filled = [v for pair in texts for v in pair]
        # a column of floats may hold a cell that reads as an integer, "0"
        if not all(map(_is_number, filled)) or all(map(_is_integer, filled)):
            if any(x != y for x, y in texts):
                raise ValueError(f"{a.name}: column {name} differs")
            continue
        pairs = [(float(x), float(y)) for x, y in texts]
        finite = [math.isfinite(x) and math.isfinite(y) for x, y in pairs]
        if any(not ok and x != y for ok, (x, y) in zip(finite, texts)):
            raise ValueError(f"{a.name}: column {name} differs in a non-finite cell")
        pairs = [pair for ok, pair in zip(finite, pairs) if ok]
        scale = max((abs(v) for pair in pairs for v in pair), default=0.0)
        if scale > 0:
            worst = max(worst, max(abs(x - y) for x, y in pairs) / scale)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("first", type=pathlib.Path)
    parser.add_argument("second", type=pathlib.Path)
    args = parser.parse_args(argv)
    names = sorted(p.relative_to(args.first) for p in args.first.rglob("*.csv"))
    others = sorted(p.relative_to(args.second) for p in args.second.rglob("*.csv"))
    if not names or names != others:
        print(f"table sets differ: {names} against {others}")
        return 1
    failed = False
    for name in names:
        try:
            worst = table_difference(args.first / name, args.second / name)
        except ValueError as exc:
            print(exc)
            worst = float("inf")
        failed |= worst > RTOL
        print(f"{name}: largest relative difference {worst:.2e}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
