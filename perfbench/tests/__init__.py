"""Self-tests of the benchmark's span wrappers."""
