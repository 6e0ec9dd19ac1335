"""Test-session settings.

No bytecode caches: the benchmark's child processes import ``uwvio`` from
``src/`` and would read ``.pyc`` files a test run left there, so a checkout
that has been tested would time differently from a clean one. The
environment variable covers the Python processes that tests start.
"""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
