import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# CI selects this with --hypothesis-profile=ci; tests that set no
# max_examples of their own run this many examples there.
settings.register_profile("ci", max_examples=2000)
