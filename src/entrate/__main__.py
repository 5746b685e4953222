"""``python -m entrate``: the ``entrate`` command-line tool."""

from .cli import main

__all__ = []

if __name__ == "__main__":
    raise SystemExit(main())
