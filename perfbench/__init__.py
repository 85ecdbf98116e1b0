"""End-to-end benchmark of whole GMR runs; see ``perfbench/run.py``."""
