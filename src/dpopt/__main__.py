"""Entry point for `python -m dpopt`."""

import sys

from .cli import main

sys.exit(main())
