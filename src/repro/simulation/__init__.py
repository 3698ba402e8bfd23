"""Event-driven, non-clairvoyant execution of online scheduling policies.

The algorithms of Section III are *online*: they never see the task volumes,
only the completion events.  :mod:`repro.algorithms.wdeq` computes their
schedules directly (which is convenient but clairvoyant in structure); this
subpackage instead runs a genuine discrete-event simulation in which

* the **engine** (:mod:`repro.simulation.engine`) owns the task volumes and
  advances time between events,
* the **policy** (:mod:`repro.simulation.policies`) only observes the
  public columns of the currently-active tasks (their ids, weights, caps,
  elapsed work) and decides the processor shares.

The engine is resumable: :func:`advance_simulation_state` advances one
:class:`SimulationState` up to a time horizon and a later call continues from
there, which is how the online scheduling service runs.

The two implementations are checked against each other in the test suite —
a policy that secretly peeked at volumes would not reproduce the analytic
WDEQ schedule on adversarial instances.
"""

from repro.simulation.engine import (
    SimulationResult,
    SimulationState,
    advance_simulation_state,
    current_allocation,
    init_simulation_state,
    simulate,
)
from repro.simulation.events import CompletionEvent, ReshareEvent, SimulationTrace
from repro.simulation.policies import (
    DeqPolicy,
    FairShareNoCapPolicy,
    OnlinePolicy,
    PriorityPolicy,
    WdeqPolicy,
)
from repro.simulation.nonclairvoyant import compare_policies, run_wdeq_online

__all__ = [
    "simulate",
    "SimulationResult",
    "SimulationState",
    "init_simulation_state",
    "advance_simulation_state",
    "current_allocation",
    "SimulationTrace",
    "CompletionEvent",
    "ReshareEvent",
    "OnlinePolicy",
    "WdeqPolicy",
    "DeqPolicy",
    "FairShareNoCapPolicy",
    "PriorityPolicy",
    "run_wdeq_online",
    "compare_policies",
]
