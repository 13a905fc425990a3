"""The tokenskip benchmark: see README.md in this directory."""
