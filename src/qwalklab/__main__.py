"""The program entry: ``python -m qwalklab`` and the ``qwalklab`` console script both call run().

This module alone sets what the qwalklab program changes in its own process;
cli.main, the library call, changes nothing outside its call.  Importing this
module counts as running the program.

numpy's OpenBLAS starts a worker thread per core at import, and an idle worker
spins (sched_yield) for up to 2^28 cycles before it sleeps, so a short process
burns a second core.  On a 2-core Xeon VM `import numpy` took 225 ms wall /
224 ms CPU with the pool and 156 / 149 ms with one thread (median of 10), and
the four demos took 23-25 % less CPU.  qwalklab's matrices are 4-8 wide in the
demos; only the largest accepted input (S4, pi regular) reaches 625, where an
SVD of four complex 625 x 625 matrices took 1.5 s on one thread against 1.1 s
and 1.4x the CPU on two.  So this module loads numpy with one BLAS thread
before anything else imports it (``import qwalklab`` loads no numpy).  A program
that imports qwalklab as a library keeps numpy's default: on the same VM, with
one thread in every process, a process that ran run_sweep between fresh library
imports lost more of its wall time to the host (steal) than with the pool in
33 of 40 alternating 50-s runs, so its median time varied more from run to run.
Nothing changes when numpy is already loaded or the user set a thread count,
and the environment is restored so that child processes see the user's own.

run() freezes the heap that the imports built before it hands the arguments
to cli.main.  The ~22,000 objects that ``import qwalklab.cli`` creates (numpy
included) live until the process exits, yet the cyclic garbage collector
would scan them in every full collection, and interpreter finalization runs
several.  On a 2-core Xeon VM (11 runs each) a ``demo group-s3`` process
spent 26-35 ms exiting, median 32 ms, against 11 ms for a bare interpreter.
gc.freeze() moves those objects to the permanent generation, which no
collection visits, and the same process exits in 7-10 ms, median 9 ms.  run()
then sends the root logger to stderr at the level QWALKLAB_LOG_LEVEL names
(WARNING by default).
"""
import gc
import logging
import os
import sys

if "numpy" not in sys.modules and not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & set(os.environ):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .cli import main


def _configure_logging() -> None:
    level = os.environ.get("QWALKLAB_LOG_LEVEL", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(levelname)s %(name)s: %(message)s")


def run() -> int:
    # import-time objects live until exit, so no collection needs to scan them
    gc.freeze()
    _configure_logging()
    return main(sys.argv[1:])


if __name__ == "__main__":
    raise SystemExit(run())
