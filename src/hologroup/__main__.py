import gc
import sys

from .cli import main


def entry() -> int:
    """Process entry of `python -m hologroup` and the `hologroup` script.

    Everything alive once the package is imported lives until the process
    exits, so it is frozen: later collections skip it, and so does the
    full collection that interpreter shutdown runs over every object the
    numpy and hologroup imports made, which was most of the teardown
    time. `gc.disable()` was measured not to help: the shutdown
    collection runs whether or not the collector is enabled. The freeze
    is here and not in `cli.main`, which tests and library callers run in
    their own heap.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
