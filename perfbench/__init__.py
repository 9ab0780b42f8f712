"""Fixed-work benchmark of the DeepXplore reproduction (see README.md)."""
