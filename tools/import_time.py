"""Time a fresh ``import cpfast`` and show what it loads.

Usage (from the root of a checkout):

    python3 tools/import_time.py [-n 5] [--src path/to/src]

Prints, one item a line:

- ``fresh_import_s <median> n=<n>``: the median of n fresh interpreters'
  wall time from start to cpfast imported, read as ``perfbench/run.py``
  reads it for ``setup_s`` (the child reads the clock once the import is
  done);
- ``scipy.linalg <True|False>`` and ``scipy.optimize <True|False>``:
  whether ``import cpfast`` loaded them;
- ``importtime <us> <module>``, five lines: the largest cumulative entries
  of ``python -X importtime -c "import cpfast"``, in microseconds.

``--src`` (default: this checkout's ``src``) is the directory cpfast is
imported from, so one copy of the tool can time another checkout.  A reader
that closes the pipe early (``| head -1``) ends the tool quietly, with exit
status 1 and nothing on stderr.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WATCHED = ("scipy.linalg", "scipy.optimize")
TOP = 5


def _run(flags: list, code: str, src: Path) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter with ``src`` first on its path."""
    code = f"import sys; sys.path.insert(0, {str(src)!r}); {code}"
    return subprocess.run(
        [sys.executable, *flags, "-c", code],
        check=True, capture_output=True, text=True, timeout=120,
    )


def fresh_import(src: Path) -> tuple[float, list]:
    """Seconds from starting an interpreter to cpfast imported in it, and
    whether each of ``WATCHED`` was loaded."""
    code = (
        "import time, cpfast; "
        f"print(repr(time.time()), *[m in sys.modules for m in {WATCHED!r}])"
    )
    t0 = time.time()
    words = _run([], code, src).stdout.split()
    return float(words[0]) - t0, [word == "True" for word in words[1:]]


def importtime_top(src: Path, top: int = TOP) -> list:
    """The ``top`` largest (cumulative microseconds, module) entries of
    ``-X importtime`` for ``import cpfast``, largest first."""
    err = _run(["-X", "importtime"], "import cpfast", src).stderr
    entries = []
    for line in err.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            entries.append((int(fields[1]), fields[2].strip()))
    return sorted(entries, reverse=True)[:top]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-n", type=int, default=5, help="fresh interpreters to time")
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("-n must be at least 1")
    runs = [fresh_import(args.src) for _ in range(args.n)]
    print(f"fresh_import_s {statistics.median(s for s, _ in runs):.4f} n={args.n}")
    for name, loaded in zip(WATCHED, runs[-1][1]):
        print(name, loaded)
    for us, module in importtime_top(args.src):
        print("importtime", us, module)
    return 0


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed early (``| head -1``): point stdout at devnull so
        # the interpreter's final flush cannot fail too, and exit quietly
        # (the recipe of the Python docs, "Note on SIGPIPE").
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    raise SystemExit(status)
