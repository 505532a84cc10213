import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# the benchmark's modules import each other as top-level modules, as run.py does
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]
