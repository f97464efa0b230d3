"""Kernel error types.

The paper's kernel returns error codes from its system calls; the kernel
objects here raise exceptions instead, which is the Pythonic equivalent.
All kernel errors derive from :class:`EscortError` so callers can catch
the whole family.
"""

from __future__ import annotations


class EscortError(Exception):
    """Base class for all kernel errors."""


class PermissionError_(EscortError):
    """An operation was denied by the ACL or ownership rules.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class ResourceLimitError(EscortError):
    """An allocation exceeded the owner's or the system's resource limit."""


class OwnerDestroyedError(EscortError):
    """An operation referenced an owner that has already been destroyed."""


class InvalidOperationError(EscortError):
    """An operation violated a kernel invariant (e.g. unlocking an unlocked
    IOBuffer, or crossing into a protection domain not on the path)."""
