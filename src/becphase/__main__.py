"""`python -m becphase <verb> ...`: the same entry point as the `becphase` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
