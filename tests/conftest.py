import sys
from pathlib import Path

from hypothesis import settings

# property tests exercise numeric loops; wall-clock deadlines are noise here
settings.register_profile("suite", deadline=None, max_examples=50, print_blob=True)
settings.load_profile("suite")

sys.path.insert(0, str(Path(__file__).parent))
