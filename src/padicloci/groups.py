"""Empty; kept because perfbench/tracing.py still lists this module by name."""
