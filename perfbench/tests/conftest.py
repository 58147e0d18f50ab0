import sys

from perfbench import ROOT

# the workloads import the program from this checkout's sources
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
