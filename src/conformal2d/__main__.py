"""``python -m conformal2d``: the command line of conformal2d.cli."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
