"""Reproduction of Beaumont, Bonichon, Eyraud-Dubois & Marchal (IPDPS 2012).

*Minimizing Weighted Mean Completion Time for Malleable Tasks Scheduling.*

The package implements the paper's model of work-preserving malleable tasks
(tasks whose total work ``V_i`` is independent of the number of processors
used, subject to a per-task cap ``delta_i`` on simultaneous processors), the
algorithms it introduces (the non-clairvoyant 2-approximation **WDEQ**, the
**Water-Filling** normal-form algorithm, **greedy** schedules) and the
experiment harness that regenerates the paper's quantitative evaluation.

Public API highlights
---------------------
``repro.core``
    Instance model, schedule representations, objectives, lower bounds,
    fractional/integer conversions and validity checks.
``repro.algorithms``
    WDEQ, DEQ, Water-Filling, greedy scheduling and ordering heuristics.
``repro.lp``
    The fixed-ordering linear program of Corollary 1, solved by SciPy/HiGHS
    or by a self-contained lockstep batched simplex, and the exact optimum
    over orderings (a batched branch-and-bound).
``repro.simulation``
    Event-driven non-clairvoyant execution of online policies.
``repro.workloads``
    Random instance generators matching the paper's experiments.
``repro.exec``
    The :class:`~repro.exec.ExecutionContext` — seed, scale and a pluggable
    execution backend (serial / process-pool / cluster) for every
    experiment.
``repro.batch``
    The vectorized substrate every backend runs: padded-batch kernels, the
    batched discrete-event simulation engine and result caching.
``repro.experiments``
    One module per table / figure / experiment of the paper.
``repro.api``
    The stable facade: the typed request/response messages shared by the
    online scheduling service's wire protocol, its client/load generator,
    and in-process callers.
``repro.service``
    The online scheduling service — ``malleable-repro serve`` — driving the
    batched simulator incrementally over a live task population.

Blessed entry points
--------------------
The top-level package re-exports the blessed callables so ``import repro``
is the only import most users need: :class:`~repro.exec.ExecutionContext`,
:func:`~repro.simulation.engine.simulate`,
:func:`~repro.batch.sim_kernels.simulate_batch`,
:func:`~repro.batch.kernels.lower_bound_batch`,
:func:`~repro.lp.batch.optimal`,
:func:`~repro.experiments.registry.run_experiment`,
:class:`~repro.scenarios.SweepRunner` and
:class:`~repro.service.SchedulerService`.  They resolve lazily (PEP 562),
so ``import repro`` stays cheap and free of circular imports.

Quickstart
----------
>>> from repro import Instance, Task
>>> from repro.algorithms import wdeq_schedule
>>> inst = Instance(P=4, tasks=[Task(volume=4, weight=2, delta=2),
...                             Task(volume=6, weight=1, delta=3)])
>>> sched = wdeq_schedule(inst)
>>> sched.weighted_completion_time() > 0
True
"""

from repro.core.instance import Instance, Task
from repro.core.schedule import (
    ColumnSchedule,
    ContinuousSchedule,
    ProcessorAssignment,
)
from repro.core.bounds import (
    height_bound,
    mixed_lower_bound,
    squashed_area_bound,
    combined_lower_bound,
)
from repro.core.objectives import (
    makespan,
    max_lateness,
    weighted_completion_time,
)

#: Lazily resolved facade exports: attribute name -> defining module.  Kept
#: lazy (PEP 562) so ``import repro`` neither pays for SciPy/asyncio imports
#: nor creates cycles (repro.exec and friends import from repro.core).
_FACADE_EXPORTS = {
    "ExecutionContext": "repro.exec",
    "simulate": "repro.simulation.engine",
    "simulate_batch": "repro.batch.sim_kernels",
    "lower_bound_batch": "repro.batch.kernels",
    "optimal": "repro.lp.batch",
    "run_experiment": "repro.experiments.registry",
    "SweepRunner": "repro.scenarios",
    "SchedulerService": "repro.service",
}

__all__ = [
    "Instance",
    "Task",
    "ColumnSchedule",
    "ContinuousSchedule",
    "ProcessorAssignment",
    "squashed_area_bound",
    "height_bound",
    "mixed_lower_bound",
    "combined_lower_bound",
    "weighted_completion_time",
    "makespan",
    "max_lateness",
    *sorted(_FACADE_EXPORTS),
    "__version__",
]

__version__ = "1.0.0"


def __getattr__(name: str):
    """Resolve a facade export on first access (PEP 562)."""
    module_name = _FACADE_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: subsequent accesses skip __getattr__
    return value


def __dir__() -> "list[str]":
    return sorted(set(globals()) | set(_FACADE_EXPORTS))
