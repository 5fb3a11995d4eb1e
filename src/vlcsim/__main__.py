"""``python -m vlcsim``: the command line of :mod:`vlcsim.cli`."""

import sys

from .cli import main

sys.exit(main())
