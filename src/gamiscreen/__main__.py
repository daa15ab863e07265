"""``python -m gamiscreen``: the command-line interface (see `gamiscreen.cli`)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
