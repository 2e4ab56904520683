"""``python -m weylbuildings``: the same command line as ``weylbuildings``."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
