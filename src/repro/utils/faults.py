"""Deterministic fault injection for crash-safety tests.

Racing a real ``SIGKILL`` against a fuzz wave gives flaky tests: the
kill lands at a different instruction every run, so the "resumes
bit-identically" assertions chase a moving target.  This module gives
the crash a deterministic address instead.  Production code calls
:func:`fault_point` at the handful of places a crash is interesting
(mid-wave test absorption, between a commit's snapshot writes and its
checkpoint flip, inside the farm daemon's job loop, and the
distribution layer's sync/steal windows — ``dist.pull.entry`` and
``dist.sync.mid`` inside a corpus pull, ``dist.shard.claim`` and
``dist.shard.done`` around a federated host's shard execution); the
call is a no-op unless a *fault plan* arms that point.

A plan comes from the ``REPRO_FAULTS`` environment variable — which is
how it crosses process boundaries into daemons and pool workers — as a
comma-separated list of arms::

    REPRO_FAULTS="corpus.add-test:3"                # kill on 3rd hit
    REPRO_FAULTS="corpus.commit.mid:1,farm.wave:5:raise"

Each arm is ``point:countdown[:action]``.  The countdown decrements on
every hit of the matching point; on reaching zero the arm fires once:

``kill``
    ``os._exit(137)`` — the process vanishes exactly as under
    ``SIGKILL``: no cleanup handlers, no flushes, no atexit.  The
    default action.
``raise``
    Raise :class:`InjectedFault` — an in-process crash the caller may
    catch, for exercising retry/backoff paths without losing the
    process.

Tests running in-process can arm points directly with :func:`inject`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from repro.errors import ConfigError

__all__ = ["InjectedFault", "fault_point", "inject", "reset_faults",
           "KILL_EXIT_CODE"]

ENV_VAR = "REPRO_FAULTS"

#: Exit status of a ``kill`` arm — 128 + SIGKILL(9), what a shell
#: reports for a SIGKILL'd process, so supervisors treat the two alike.
KILL_EXIT_CODE = 137

ACTIONS = ("kill", "raise")

#: Parsed arms for this process (lazy; ``None`` until first use).
_ARMS = None


class InjectedFault(RuntimeError):
    """Raised when a ``raise``-mode fault arm fires.

    Deliberately *not* a :class:`~repro.errors.ReproError`: injected
    faults simulate crashes, and nothing in the library should swallow
    them as a handled configuration problem.
    """


def _parse(spec):
    """Parse a ``REPRO_FAULTS`` value into a list of arm dicts."""
    arms = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        fields = part.split(":")
        if len(fields) == 2:
            point, countdown = fields
            action = "kill"
        elif len(fields) == 3:
            point, countdown, action = fields
        else:
            raise ConfigError(
                f"bad fault arm {part!r}; want point:countdown[:action]")
        if action not in ACTIONS:
            raise ConfigError(
                f"unknown fault action {action!r}; want one of {ACTIONS}")
        try:
            remaining = int(countdown)
        except ValueError:
            raise ConfigError(
                f"bad fault countdown {countdown!r} in {part!r}") from None
        if remaining < 1:
            raise ConfigError(
                f"fault countdown must be >= 1, got {remaining}")
        arms.append({"point": point, "remaining": remaining,
                     "action": action})
    return arms


def _plan():
    global _ARMS
    if _ARMS is None:
        _ARMS = _parse(os.environ.get(ENV_VAR, ""))
    return _ARMS


def reset_faults():
    """Drop this process's parsed plan (re-read from the env next hit)."""
    global _ARMS
    _ARMS = None


def fault_point(name):
    """Declare a crash-interesting point; fires any armed fault for it.

    Costs one list scan when no plan is armed, so production call sites
    stay hot-path safe.
    """
    for arm in _plan():
        if arm["point"] != name or arm["remaining"] <= 0:
            continue
        arm["remaining"] -= 1
        if arm["remaining"] == 0:
            if arm["action"] == "kill":
                os._exit(KILL_EXIT_CODE)
            raise InjectedFault(f"injected fault at {name!r}")


@contextmanager
def inject(point, countdown=1, action="raise"):
    """Arm one fault in-process for the duration of a ``with`` block.

    The in-process analogue of ``REPRO_FAULTS`` for tests that keep the
    process alive (``action="raise"``); yields the arm so a test can
    check ``arm["remaining"] == 0`` to confirm the fault really fired.
    """
    if action not in ACTIONS:
        raise ConfigError(
            f"unknown fault action {action!r}; want one of {ACTIONS}")
    arm = {"point": point, "remaining": int(countdown), "action": action}
    plan = _plan()
    plan.append(arm)
    try:
        yield arm
    finally:
        if arm in plan:
            plan.remove(arm)
