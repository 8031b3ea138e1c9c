"""imgforge: apply a declarative Pifile to a single-board-computer OS image.

The pipeline parses a Pifile into commands, assigns them to the three
execution stages (setup, prepare, chroot), plans every observable effect
of the build as an action list, and performs it through an executor
backend — a dry-run backend that records a deterministic action log, or a
local backend that performs the build.
"""

__version__ = "0.1.0"
