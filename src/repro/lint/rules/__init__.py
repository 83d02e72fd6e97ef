"""Built-in reprolint rules; importing this package registers them all."""

from repro.lint.rules import (  # noqa: F401
    charges,
    crashpoints,
    determinism,
    hygiene,
    realio,
    taxonomy,
)

__all__ = [
    "charges",
    "crashpoints",
    "determinism",
    "hygiene",
    "realio",
    "taxonomy",
]
