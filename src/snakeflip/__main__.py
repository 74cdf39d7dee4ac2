"""Run the command-line interface: python -m snakeflip."""
from .cli import main
raise SystemExit(main())
