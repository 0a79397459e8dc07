"""Fault-tolerance primitives for the experiment harness.

Long figure/table sweeps (21 workloads x 4 models, plus ablations) are
exactly the campaigns where a single OOM-killed worker or a wedged
simulation used to abort the whole batch and discard every completed
point.  This module supplies the pieces the harness composes instead:

* :class:`RetryPolicy` -- per-task wall-clock timeout plus bounded
  retries with deterministic exponential backoff;
* :class:`FailedPoint` -- the durable record of one simulation point
  that exhausted its retries (captured traceback included), reported in
  a failure table instead of a raised stack trace;
* :class:`BatchFailure` -- the exception a non-``keep_going`` batch
  raises *after* publishing every completed point to the disk cache, so
  a re-run resumes instead of restarting;
* :class:`FaultInjector` -- a deterministic, environment-driven fault
  hook (``REPRO_FAULT_SPEC``) used by the resilience test suite and the
  CI fault-injection step to kill workers, raise inside tasks, sleep
  past the timeout, or refuse worker spawns on demand.

Fault spec grammar (semicolon-separated directives)::

    kill:workload=bzip2,once        # os._exit(17) in the worker
    raise:workload=tonto            # raise RuntimeError inside the task
    sleep:workload=mcf,seconds=30   # wedge the task past its timeout
    nospawn                         # worker processes refuse to start

``workload=*`` matches every task.  ``once`` arms the directive for a
single firing; cross-process state (a retried task lands in a *new*
worker) is kept as marker files under ``REPRO_FAULT_STATE_DIR`` when
set, else in-process only.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

FAULT_SPEC_ENV = "REPRO_FAULT_SPEC"
FAULT_STATE_ENV = "REPRO_FAULT_STATE_DIR"

# Exit code used by injected worker kills; distinctive in failure logs.
KILL_EXIT_CODE = 17


# -- retry policy -----------------------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/retry/backoff contract for one batch submission.

    ``timeout`` is the per-task wall-clock budget in seconds (None
    disables enforcement; serial in-process execution never enforces it
    because a cooperative simulator cannot be preempted).  A failed task
    is retried up to ``retries`` times; attempt *n* (1-based failure
    count) waits ``backoff * backoff_factor**(n-1)`` seconds, capped at
    ``backoff_max`` -- fully deterministic, no jitter, so test runs and
    CI reproduce exactly.
    """

    retries: int = 2
    timeout: Optional[float] = None
    backoff: float = 0.25
    backoff_factor: float = 2.0
    backoff_max: float = 30.0

    def delay_for(self, failure_count: int) -> float:
        """Backoff delay before retry number ``failure_count`` (1-based)."""
        if self.backoff <= 0.0 or failure_count <= 0:
            return 0.0
        delay = self.backoff * (self.backoff_factor ** (failure_count - 1))
        return min(delay, self.backoff_max)


# -- failure records --------------------------------------------------------

@dataclass(frozen=True)
class FailedPoint:
    """One simulation point that exhausted its retry budget.

    The engine records one per task, with the task's name as ``point``
    (a program id in a fuzz campaign); the runner turns each into one
    record per simulation point of the task.

    ``kind`` is ``"crash"`` (worker died without returning), ``"timeout"``
    (task exceeded the wall-clock budget and was terminated), ``"error"``
    (the task raised; ``detail`` holds the captured traceback), or
    ``"lost"`` (the engine returned no result and no failure record --
    a defensive catch-all that should never fire).
    """

    point: object                    # SimPoint, or an engine task name
    kind: str
    detail: str
    attempts: int = 1

    @property
    def reason(self) -> str:
        """First meaningful line of ``detail`` for one-line tables."""
        lines = [ln.strip() for ln in self.detail.strip().splitlines()
                 if ln.strip()]
        return lines[-1] if lines else self.kind


class BatchFailure(RuntimeError):
    """A batch finished with unrecoverable point failures.

    Raised *after* every completed point has been published to the disk
    cache and memo, so the work already done is never lost; re-running
    the same sweep resumes from the cache and simulates only the
    points recorded here.
    """

    def __init__(self, failures: List[FailedPoint]):
        self.failures = list(failures)
        names = sorted({"%s/%s" % (f.point.workload, f.point.model.value)
                        for f in self.failures})
        preview = ", ".join(names[:4]) + ("..." if len(names) > 4 else "")
        super().__init__(
            "%d simulation point(s) failed after retries: %s"
            % (len(self.failures), preview))


# -- deterministic fault injection -----------------------------------------

_KINDS = ("kill", "raise", "sleep", "nospawn")


@dataclass(frozen=True)
class FaultRule:
    """One parsed ``REPRO_FAULT_SPEC`` directive."""

    index: int                       # position in the spec (marker identity)
    kind: str                        # kill | raise | sleep | nospawn
    workload: str = "*"              # task filter; "*" matches everything
    seconds: float = 0.0             # sleep duration
    once: bool = False               # disarm after the first firing

    def matches(self, workload: str) -> bool:
        return self.workload in ("*", workload)

    @property
    def marker(self) -> str:
        return "fault-%d-%s.fired" % (self.index, self.kind)


def _parse_rule(index: int, text: str) -> FaultRule:
    head, _, rest = text.strip().partition(":")
    kind = head.strip()
    if kind not in _KINDS:
        raise ValueError("unknown fault kind %r in %s=%r"
                         % (kind, FAULT_SPEC_ENV, text))
    fields = {"index": index, "kind": kind}
    for item in filter(None, (p.strip() for p in rest.split(","))):
        key, sep, value = item.partition("=")
        if key == "once" and not sep:
            fields["once"] = True
        elif key == "workload" and sep:
            fields["workload"] = value
        elif key == "seconds" and sep:
            fields["seconds"] = float(value)
        else:
            raise ValueError("bad fault option %r in %s=%r"
                             % (item, FAULT_SPEC_ENV, text))
    return FaultRule(**fields)


class FaultInjector:
    """Executes the faults described by ``REPRO_FAULT_SPEC``.

    Worker processes call :meth:`on_task` at the top of every task; the
    parent calls :meth:`fail_spawn` before starting each worker.  With no
    spec in the environment every check is a cheap no-op, so production
    runs pay nothing.
    """

    def __init__(self, rules: List[FaultRule],
                 state_dir: Optional[Path] = None):
        self.rules = list(rules)
        self.state_dir = Path(state_dir) if state_dir else None
        self._fired_local = set()

    @classmethod
    def from_env(cls) -> Optional["FaultInjector"]:
        """The injector described by the environment (None when unset)."""
        spec = os.environ.get(FAULT_SPEC_ENV, "").strip()
        if not spec:
            return None
        state = os.environ.get(FAULT_STATE_ENV, "").strip()
        return cls(parse_fault_spec(spec), Path(state) if state else None)

    # -- once bookkeeping --------------------------------------------------

    def _already_fired(self, rule: FaultRule) -> bool:
        if self.state_dir is not None:
            return (self.state_dir / rule.marker).exists()
        return rule.marker in self._fired_local

    def _mark_fired(self, rule: FaultRule) -> None:
        if self.state_dir is not None:
            self.state_dir.mkdir(parents=True, exist_ok=True)
            (self.state_dir / rule.marker).touch()
        else:
            self._fired_local.add(rule.marker)

    def _arm(self, kind: str, workload: str = "*") -> Optional[FaultRule]:
        """The first live rule of ``kind`` matching ``workload``."""
        for rule in self.rules:
            if rule.kind != kind or not rule.matches(workload):
                continue
            if rule.once and self._already_fired(rule):
                continue
            if rule.once:
                self._mark_fired(rule)
            return rule
        return None

    # -- fire sites --------------------------------------------------------

    def on_task(self, workload: str) -> None:
        """Worker-side hook; may kill the process, raise, or sleep."""
        rule = self._arm("kill", workload)
        if rule is not None:
            os._exit(KILL_EXIT_CODE)
        rule = self._arm("raise", workload)
        if rule is not None:
            raise RuntimeError("injected fault: raise on workload %r"
                               % workload)
        rule = self._arm("sleep", workload)
        if rule is not None:
            time.sleep(rule.seconds)

    def fail_spawn(self) -> bool:
        """Parent-side hook: True when worker spawning must fail."""
        return self._arm("nospawn") is not None


def parse_fault_spec(spec: str) -> List[FaultRule]:
    """Parse a fault spec string (exposed for tests and tooling)."""
    return [_parse_rule(i, part)
            for i, part in enumerate(filter(None, (p.strip() for p in
                                                   spec.split(";"))))]


__all__ = [
    "BatchFailure", "FailedPoint", "FaultInjector", "FaultRule",
    "RetryPolicy", "parse_fault_spec", "FAULT_SPEC_ENV", "FAULT_STATE_ENV",
    "KILL_EXIT_CODE",
]
