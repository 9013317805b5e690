"""Observation hooks on the simulation engine.

A :class:`SimulationHook` passed to :class:`~repro.core.engine.Simulation`
is called around the event loop: once before the first event, after every
processed event, and once when the run completes. Observed and unobserved
runs share the engine's one drain loop, so a hook watches exactly the
code every production result comes from. An observed run drains one
event per batch and calls ``after_event`` after each; an unobserved run
pays one ``is not None`` branch per batch of same-time events.

Hooks are *observers*: they may read any engine state but must not mutate
it, schedule events, or otherwise perturb the simulated machine. The
validation subsystem (:mod:`repro.validate`) relies on this contract to
guarantee that a checked run produces bit-identical results to an
unchecked one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.engine import Simulation
    from repro.core.results import SimulationResult


class SimulationHook:
    """Base class / interface for engine observation hooks.

    Subclasses override any subset of the three callbacks; the defaults
    do nothing, so a hook only pays for what it watches.
    """

    def on_start(self, sim: "Simulation") -> None:
        """Called once, after processors claimed their first tasks but
        before the first event is popped."""

    def after_event(self, sim: "Simulation", now: float) -> None:
        """Called after each event callback has fully executed.

        ``now`` is the simulated time of the event just processed.
        """

    def on_finish(self, sim: "Simulation", result: "SimulationResult") -> None:
        """Called once, after the run completed and the result was built."""


class CompositeHook(SimulationHook):
    """Fan one engine hook slot out to several hooks, in order."""

    def __init__(self, hooks: tuple[SimulationHook, ...]) -> None:
        self.hooks = tuple(hooks)

    def on_start(self, sim: "Simulation") -> None:
        """Called once before the first event is dispatched."""
        for hook in self.hooks:
            hook.on_start(sim)

    def after_event(self, sim: "Simulation", now: float) -> None:
        """Called after every dispatched event."""
        for hook in self.hooks:
            hook.after_event(sim, now)

    def on_finish(self, sim: "Simulation", result: "SimulationResult") -> None:
        """Called once after the last event, before results are built."""
        for hook in self.hooks:
            hook.on_finish(sim, result)
