"""imgforge: apply a declarative Pifile to a single-board-computer OS image.

The pipeline parses a Pifile into commands, assigns them to the three
execution stages (setup, prepare, chroot), and drives every observable
effect through an executor backend — a dry-run backend that records a
deterministic action log, or a local backend that performs the build.
"""

from .cli import entrypoint, main

__version__ = "0.1.0"

__all__ = ["entrypoint", "main"]
