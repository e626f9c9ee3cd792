"""End-to-end benchmark of the repro flow (see README.md and run.py)."""
