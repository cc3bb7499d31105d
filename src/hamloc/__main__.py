"""``python -m hamloc``: the command-line front door."""

from .cli import main

if __name__ == "__main__":
    main()
