"""``python -m rmtspec``: the same command as the ``rmtspec`` script."""

from .cli import main

if __name__ == "__main__":
    main()
