"""Exception types shared across the package."""

from __future__ import annotations


class BlockPecError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedGate(BlockPecError):
    """Gate kind unknown, malformed, or outside an operation's domain."""


class UnsupportedKind(BlockPecError):
    """Noise kind not handled by the called constructor."""


class Unsupported(BlockPecError):
    """Requested combination has no closed form or implementation."""


class NotZClosed(BlockPecError):
    """Conjugating a phase-flip string through a gate left the Z-string group.

    Carries the offending gate and string so callers can report or absorb it.
    """

    def __init__(self, gate, zstring):
        self.gate = gate
        self.zstring = zstring
        super().__init__(f"conjugation of {zstring} through {gate} is not a Z-string")


class SingularChannel(BlockPecError):
    """Channel has a (near-)zero eigenvalue and cannot be inverted."""


class GuardExceeded(BlockPecError):
    """Problem size exceeds a documented feasibility guard."""


class InvalidSamples(BlockPecError):
    """Monte Carlo sample count must be a positive integer."""


class InvalidArgument(BlockPecError):
    """Argument outside the documented domain."""


class DegenerateVector(BlockPecError):
    """Loader vector makes a required sine underflow."""


class CircuitParseError(BlockPecError):
    """Circuit text (or related JSON input) failed to parse."""
