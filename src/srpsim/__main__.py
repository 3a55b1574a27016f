"""`python -m srpsim`: the command-line front end of `srpsim.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
