"""``python -m rtmon``: the ``rtmon`` command line and its exit codes."""

from .cli import main_entry

if __name__ == "__main__":
    main_entry()
