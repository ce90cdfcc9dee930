"""``python -m listlab``: the ``listlab`` command line."""

import sys

from .cli import main

sys.exit(main())
