"""`python -m do_icbf`: the same command line as the do-icbf script."""

from .cli import entry

if __name__ == "__main__":
    entry()
