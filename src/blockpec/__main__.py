"""``python -m blockpec ...`` runs the command-line interface (see cli.py)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
