"""Denial-of-service policies (paper section 4.4).

The paper is explicit that it "does not offer any novel denial of service
policies" — it provides the *mechanisms* (accounting, paths, early demux,
pathKill) and demonstrates three representative policies, which are the
three classes here:

* :class:`~repro.policy.synflood.SynFloodPolicy` — trusted/untrusted
  passive paths with SYN_RCVD caps, dropping floods at demux time;
* :class:`~repro.policy.runaway.RunawayPolicy` — a 2 ms maximum thread
  runtime, with the offender's path killed and fully reclaimed;
* :class:`~repro.policy.qos.QosPolicy` — a proportional-share reservation
  sized to guarantee a stream's bandwidth.
"""

from repro.policy.base import Policy
from repro.policy.synflood import SynFloodPolicy
from repro.policy.runaway import RunawayPolicy
from repro.policy.qos import QosPolicy
from repro.policy.misbehaver import MisbehaverPolicy
from repro.policy.adaptive import AdaptivePolicy

__all__ = ["Policy", "SynFloodPolicy", "RunawayPolicy", "QosPolicy",
           "MisbehaverPolicy", "AdaptivePolicy"]
