"""``python -m entroute``: the ``entroute`` command."""

import sys

from .cli import main

sys.exit(main())
