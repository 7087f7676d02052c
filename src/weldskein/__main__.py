"""``python -m weldskein``: the command-line front end."""
import sys

from weldskein.cli import main

if __name__ == '__main__':
    sys.exit(main())
