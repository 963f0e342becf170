"""``python -m lipem``: the same command line as the ``lipem`` script."""

from .cli import main

if __name__ == "__main__":
    main()
