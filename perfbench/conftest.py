"""Test set-up: import the benchmark modules and momext from this checkout.

Run with `python3 -m pytest perfbench` from the root of the checkout.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]
