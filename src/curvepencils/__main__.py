"""Run the command line as ``python -m curvepencils``."""

import sys

from .cli import main

sys.exit(main())
