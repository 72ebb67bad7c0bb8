"""``python -m jointfeas``: the ``jointfeas`` command line."""

from .cli import main

if __name__ == "__main__":
    main()
