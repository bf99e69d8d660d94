"""``python -m pqvirasoro``: the same command line as the pqvirasoro script."""

import sys

from .cli import main

sys.exit(main())
