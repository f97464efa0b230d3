"""The SYN-flood policy (paper section 4.4.1).

"Escort implements this policy by providing different passive paths: one
accepts SYN requests from the trusted subnet and the other from the
untrusted subnet.  The passive paths also keep track of the number of
active paths they have created which are in the SYN_RCVD state ...  used
to drop SYN requests for a passive path if the outstanding number of paths
in SYN_RCVD state becomes too high.  The important point is that the
policy decides this during demultiplexing time."

Everything here is configuration; the enforcement lives in the TCP demux
function (the count check) and the ETH driver (the cheap early drop).
"""

from __future__ import annotations

from typing import List

from repro.net.addressing import Subnet
from repro.policy.base import Policy


class SynFloodPolicy(Policy):
    """Trusted/untrusted passive paths with SYN_RCVD caps."""

    def __init__(self, trusted_subnet: Subnet, untrusted_cap: int = 64):
        if untrusted_cap <= 0:
            raise ValueError("untrusted cap must be positive")
        self.trusted_subnet = trusted_subnet
        self.untrusted_cap = untrusted_cap

    def listen_specs(self) -> List:
        from repro.modules.http import ListenSpec
        # Registration order matters: first match wins, so the trusted
        # subnet is carved out before the catch-all untrusted path.
        return [
            ListenSpec(port=80, subnet=self.trusted_subnet,
                       name="passive-trusted"),
            ListenSpec(port=80, subnet=Subnet("0.0.0.0/0"),
                       name="passive-untrusted", syn_cap=self.untrusted_cap),
        ]

    def apply(self, server) -> None:
        # Nothing post-boot: the listen specs carry the whole policy.
        pass

    def describe(self) -> str:
        return (f"SynFloodPolicy(trusted={self.trusted_subnet.cidr}, "
                f"untrusted_cap={self.untrusted_cap})")
