import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
E2E = os.path.dirname(HERE)
SRC = os.path.join(os.path.dirname(E2E), "src")

for path in (E2E, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)
