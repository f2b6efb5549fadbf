import sys
from pathlib import Path

# so test modules can import the shared oracles
sys.path.insert(0, str(Path(__file__).parent))
