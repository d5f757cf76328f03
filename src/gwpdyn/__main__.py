"""`python -m gwpdyn`: the same command line as the `gwpdyn` script."""

import sys

from .cli import main

sys.exit(main())
