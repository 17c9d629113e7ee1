"""Diagnostics for every pipeline phase.

The paper stresses that the desugaring and typechecking phases "identify
exactly what part of the standard is violated" on failure (§5.1); every
static diagnostic here therefore carries an optional ISO C11 clause
citation (e.g. ``"6.5.7p2"``).
"""

from __future__ import annotations

from typing import Optional

from .source import Loc


class CerberusError(Exception):
    """Base class for all errors raised by the pipeline."""

    phase = "cerberus"

    def __init__(self, message: str, loc: Optional[Loc] = None,
                 iso: Optional[str] = None):
        self.message = message
        self.loc = loc if loc is not None else Loc.unknown()
        self.iso = iso
        super().__init__(self.render())

    def render(self) -> str:
        parts = [f"{self.loc}: {self.phase} error: {self.message}"]
        if self.iso:
            parts.append(f"[ISO C11 §{self.iso}]")
        return " ".join(parts)


class LexError(CerberusError):
    phase = "lexical"


class PreprocessorError(CerberusError):
    phase = "preprocessor"


class ParseError(CerberusError):
    phase = "parse"


class DesugarError(CerberusError):
    """A constraint violation detected while desugaring Cabs to Ail."""

    phase = "desugaring"


class TypeCheckError(CerberusError):
    """A constraint violation detected by the Ail type checker."""

    phase = "typing"


class CoreTypeError(CerberusError):
    """An ill-typed Core program (elaboration is meant to be total and
    well-typing-preserving, so this indicates an internal bug)."""

    phase = "core-typing"


class UnsupportedError(CerberusError):
    """A C feature that is out of Cerberus-py's supported fragment
    (bitfields, VLAs, `goto` into a nested block, ...)."""

    phase = "unsupported"


class InternalError(CerberusError):
    phase = "internal"


class StaticError(CerberusError):
    """An implementation-defined static error surfaced by Core ``error``."""

    phase = "static"
