"""End-to-end and per-layer benchmark of the CLADO allocator (see run.py)."""
