"""Stage-timed benchmark of the gridtopo pipeline; see ``run.py``."""
