"""The program entry: ``python -m qwalklab`` and the ``qwalklab`` console script both call run().

run() freezes the heap that the imports built before it hands the arguments
to cli.main.  The ~22,000 objects that ``import qwalklab.cli`` creates (numpy
included) live until the process exits, yet the cyclic garbage collector
would scan them in every full collection, and interpreter finalization runs
several.  On a 2-core Xeon VM (11 runs each) a ``demo group-s3`` process
spent 26-35 ms exiting, median 32 ms, against 11 ms for a bare interpreter.
gc.freeze() moves those objects to the permanent generation, which no
collection visits, and the same process exits in 7-10 ms, median 9 ms.  cli.main
itself leaves the collector alone, so library callers and tests that run it
in-process keep the interpreter's own settings.
"""
import gc
import sys

from .cli import main


def run() -> int:
    # import-time objects live until exit, so no collection needs to scan them
    gc.freeze()
    return main(sys.argv[1:])


if __name__ == "__main__":
    raise SystemExit(run())
