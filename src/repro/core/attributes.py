"""Path attributes.

``pathCreate`` "takes a set of attributes and a starting module as
arguments.  The attributes define invariants for the path; e.g., the port
number and IP address for the peer" (paper section 2.2).  Modules consult
the attributes in their ``open`` functions to decide how to specialize
their stage and which neighbour module the path extends to next.

Attributes are immutable once the path is created — they are invariants —
so this class freezes after construction.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Mapping, Optional


class Attributes:
    """An immutable, typed-by-convention attribute set.

    Well-known keys used by the web-server configuration:

    * ``local_port`` / ``peer_ip`` / ``peer_port`` — TCP endpoint invariants
    * ``listen`` — True for passive (listening) paths
    * ``subnet`` — the source subnet a passive path accepts SYNs from
    * ``document_root`` — HTTP serving root
    * ``qos_bandwidth`` — bytes/second reservation for a QoS path
    """

    def __init__(self, values: Optional[Mapping[str, Any]] = None, **kwargs):
        merged: Dict[str, Any] = {}
        if values:
            merged.update(values)
        merged.update(kwargs)
        object.__setattr__(self, "_values", merged)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("path attributes are immutable invariants")

    def get(self, key: str, default: Any = None) -> Any:
        return self._values.get(key, default)

    def require(self, key: str) -> Any:
        """Fetch a mandatory attribute; raises KeyError with context."""
        try:
            return self._values[key]
        except KeyError:
            raise KeyError(f"path attribute {key!r} is required") from None

    def __contains__(self, key: str) -> bool:
        return key in self._values

    def __getitem__(self, key: str) -> Any:
        return self._values[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def as_dict(self) -> Dict[str, Any]:
        return dict(self._values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self._values.items()))
        return f"Attributes({inner})"
