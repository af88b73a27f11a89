"""Rewrite raw_digests.json from the current code.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

Check the result with OPENBLAS_NUM_THREADS=1 and with it unset before
committing it (see tests/test_golden_digests.py).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden_digests import GOLDEN, regenerate  # noqa: E402

if __name__ == "__main__":
    regenerate()
    print(f"wrote {GOLDEN}")
