"""Sum ``tools/fit_digest.py`` output per benchmark cell, side by side for
two digests.

Usage (from the root of a checkout):

    python3 tools/digest_cells.py A.txt [B.txt]

For each workload, seed, cell (a problem label without its ``-s<seed>``
suffix) and variant, in the order they first appear in A and then in B, one
line holds the number of fits and, over them, the total iterations, the
count of each start (``gevd:9,svd:3``), the count of each stop test
(``window:12``; a fit that did not stop "tol" counts under its stop reason,
``error`` for a numerical failure) and the median of the per-fit MedSAE, in
dB.  Given B, each figure reads ``A->B``, and ``-`` stands for a cell that
one digest lacks; two last fields count, of the cell's n fits (a problem
label and variant in either digest), the k that take the same steps in A
and B, ``steps=k/n``: the same iterations, accepted steps, stop reason,
stop test and start, even where their bits differ; and the k whose digest
line is identical, ``same=k/n``.  A digest line that does not have the
fields of ``fit_digest.py`` is an error.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from collections import Counter

FIELDS = ("fits", "iters", "start", "stop", "medsae")


def read_cells(path: str) -> dict:
    """The fits of each (workload, seed, cell, variant) of the digest at
    ``path``, in the order of first appearance: for each, its problem label,
    its digest line, its steps (the line without its final relative error,
    factor hash and MedSAE) and the figures that :func:`_figures` sums."""
    fits = {}
    with open(path) as lines:
        for number, line in enumerate(lines, 1):
            parts = line.split()
            # The stop reason of a failed step holds spaces; the five fields
            # after it do not.
            if len(parts) < 12:
                raise ValueError(f"{path}:{number}: not a fit_digest.py line")
            workload, seed, label, variant, iters = parts[:5]
            medsae, stop_test, start = parts[-3:]
            stop = parts[6] if stop_test == "None" else stop_test
            key = (workload, seed, label.rsplit("-s", 1)[0], variant)
            figures = (int(iters), start, stop, float.fromhex(medsae))
            steps = tuple(parts[:-5] + parts[-2:])
            fits.setdefault(key, []).append(
                (label, line.rstrip("\n"), steps, figures)
            )
    return fits


def _matching(a: list, b: list, field: int) -> str:
    """``k/n``: of the n fits in cell rows ``a`` or ``b``, the k whose
    ``field`` (1 the digest line, 2 the steps) is the same in both."""
    values = [{row[0]: row[field] for row in rows} for rows in (a, b)]
    labels = values[0].keys() | values[1].keys()
    same = sum(values[0].get(label) == values[1].get(label) for label in labels)
    return f"{same}/{len(labels)}"


def _figures(rows: list) -> dict:
    def counts(values):
        return ",".join(f"{k}:{n}" for k, n in sorted(Counter(values).items()))

    iters, starts, stops, medsaes = zip(*(row[-1] for row in rows))
    return {
        "fits": str(len(rows)),
        "iters": str(sum(iters)),
        "start": counts(starts),
        "stop": counts(stops),
        "medsae": f"{statistics.median(medsaes):.2f}",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("digests", nargs="+", metavar="DIGEST")
    args = parser.parse_args(argv)
    if len(args.digests) > 2:
        parser.error("at most two digests")
    tables = [read_cells(path) for path in args.digests]
    keys = list(dict.fromkeys(key for table in tables for key in table))
    for key in keys:
        cells = [table.get(key, []) for table in tables]
        figures = [_figures(rows) if rows else None for rows in cells]
        fields = [
            f"{name}=" + "->".join("-" if f is None else f[name] for f in figures)
            for name in FIELDS
        ]
        if len(cells) == 2:
            fields.append(f"steps={_matching(*cells, 2)}")
            fields.append(f"same={_matching(*cells, 1)}")
        print(*key, *fields)
    return 0


if __name__ == "__main__":
    sys.exit(main())
