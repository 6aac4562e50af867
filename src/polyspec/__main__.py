"""Entry point for ``python -m polyspec``."""

from .cli import main

if __name__ == "__main__":
    main()
