"""`python -m coslam ...`: the same command line as the `coslam` script."""

import sys

from .cli import main

sys.exit(main())
