"""``python -m weiljets``: the command-line front end (see :mod:`weiljets.cli`)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
