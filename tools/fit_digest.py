"""Print one line per perfbench fit, to show that a change leaves every fit
bit for bit the same.

Usage (from the root of a checkout):

    python3 tools/fit_digest.py [--workloads swamp-small,tensor-tall]
        [--seeds 11,0] [--variants auto,als-ls,als] > digest.txt

Each problem of each workload and seed (see ``perfbench/workloads.py``) is
fitted with ``cpfast.fit`` at the default ``FitConfig`` of every variant, one
BLAS thread.  A line holds the workload, the seed, the problem label, the
variant, the iterations, the accepted steps, the stop reason, the final
relative error as ``float.hex``, a SHA-256 prefix of the factor bytes and
the fit's MedSAE against the problem's truth (the mean over modes and
components of ``medsae_pair``'s dB figures, as perfbench scores accuracy) as
``float.hex``, the test that stopped a "tol" fit (``FitResult.stop_test``,
``None`` for any other stop) and the start that ran (``FitResult.start``:
``gevd``, ``svd`` or ``random``; a compressed fit's is its core stage's).
Two checkouts fit and score the same way exactly when their outputs are
equal (``diff`` them).  A reader that closes the pipe early (``| head -1``)
ends the tool quietly, with exit status 1.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import WORKLOADS, make_problems  # noqa: E402
from cpfast import FitConfig, fit  # noqa: E402
from cpfast.synth import medsae_pair  # noqa: E402


def _names(text: str) -> list:
    return [part for part in text.split(",") if part]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", type=_names, default="swamp-small,tensor-tall")
    parser.add_argument("--seeds", type=_names, default="11,0")
    parser.add_argument("--variants", type=_names, default="auto,als-ls,als")
    args = parser.parse_args(argv)
    for name in args.workloads:
        for seed in args.seeds:
            for problem in make_problems(WORKLOADS[name], int(seed)):
                for variant in args.variants:
                    config = FitConfig(rank=problem.cell.rank, variant=variant)
                    result = fit(problem.tensor, config)
                    digest = hashlib.sha256()
                    for factor in result.model.factors:
                        digest.update(factor.tobytes(order="F"))
                    medsae = medsae_pair(problem.truth, result.model)["per_component"]
                    print(
                        name, seed, problem.label, variant, result.iters,
                        result.accepted_iters, result.stop_reason,
                        float(result.final_relerr).hex(), digest.hexdigest()[:16],
                        float(medsae.mean()).hex(), result.stop_test, result.start,
                        flush=True,
                    )
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
