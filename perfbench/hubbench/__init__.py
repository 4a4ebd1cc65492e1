"""hubkit's benchmark: workloads, reference checks, tracing and statistics.

The package never modifies hubkit. It calls hubkit's public functions, times
them from the outside, and checks their outputs against references written
here (``oracle``). ``run.py`` one directory up is the entry point.
"""
