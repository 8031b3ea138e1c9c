"""``python -m imgforge``: the same command as ``imgforge``."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
