"""Console entry point: ``entlab ...`` or ``python -m entlab ...``.

Before numpy is imported, each BLAS thread variable the caller left unset is
set to 1, so the run and the ``sim-scan --workers`` processes, which inherit
the environment, use one BLAS thread each; a value the caller set is kept.
Importing ``entlab`` as a library sets nothing.
"""

import os

from . import BLAS_THREAD_VARS


def main(argv=None) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
