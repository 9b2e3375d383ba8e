"""``python -m coalstab``: the command-line interface of :mod:`coalstab.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
