"""Session setup for tests/ and bench/: pyproject's `pythonpath` puts src/ on
sys.path for the tests themselves; the CLI subprocesses they start get it
through PYTHONPATH, so a bare `python -m pytest` needs no environment."""
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
