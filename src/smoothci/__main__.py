import os
import sys

from .cli import EXIT_BROKEN_PIPE, main


def run() -> int:
    """``smoothci`` as a program: ``cli.main`` plus a quiet broken pipe.

    When the reader of stdout goes away early (``smoothci verify | head``)
    the rest of the output is dropped, as the Python documentation's
    SIGPIPE note advises, and the exit status is EXIT_BROKEN_PIPE.
    """
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The interpreter flushes stdout once more at exit; let that
        # flush go to devnull instead of raising again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return status


if __name__ == "__main__":
    sys.exit(run())
