"""Make ``figures.py`` importable when pytest runs this directory."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
