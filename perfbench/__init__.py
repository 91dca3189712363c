"""End-to-end benchmark of the transdirac command line, with a traced run
that times each module's public functions.  Entry point: ``run.py``."""
