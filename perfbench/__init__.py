"""Steady end-to-end benchmark of the SC-Share reproduction (see README.md)."""
