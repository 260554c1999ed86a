"""`python -m grouprobe`: the same command line as the `grouprobe` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
