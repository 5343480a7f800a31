"""Deterministic fault injection for the durability and execution layers.

Production database engines treat systematic fault injection as *the*
correctness tool for the storage and supervision layers: a recovery
path that has never fired is a recovery path that does not work.  This
module is the single registry of **named injection sites** threaded
through every layer of this repo that can fail in deployment:

=================  ==========================================================
site               where it fires
=================  ==========================================================
``store.read``     :meth:`ArtifactStore.get` / ``load_entry`` before disk I/O
``store.write``    :meth:`ArtifactStore.put` before the temp-file write
``store.fsync``    :meth:`ArtifactStore.put` between write and atomic rename
``server.execute`` :meth:`PackageQueryServer._execute` before evaluation
=================  ==========================================================

A :class:`FaultPlan` is a set of :class:`FaultRule`\\ s — one per site,
each with a firing probability, an optional cap on total fires, and an
**action**:

* ``error``  — raise :class:`InjectedFault` (an ``OSError``: store I/O
  degradation paths treat it exactly like a real disk error);
* ``enospc`` — the same, with ``errno=ENOSPC`` (triggers the store's
  sticky memory-only degradation, like a genuinely full disk);
* ``eacces`` — the same, with ``errno=EACCES`` (permission loss);
* ``torn``   — returned to the call site instead of raised; the store
  interprets it by writing a checksum-invalid entry (a torn write that
  an ``os.replace`` crash could leave behind), which the read path
  must *reject*, never serve;
* ``kill``   — ``os._exit`` the current process.  Meaningful inside a
  writer subprocess armed from the environment: a kill at
  ``store.fsync`` dies between write and rename, leaving the orphan
  temp file that store recovery must clean up.

Determinism: every rule draws from its own ``random.Random`` seeded
with ``"{plan seed}:{site}"``, so a plan replays the identical fire
sequence for the identical sequence of arrivals at each site —
independent of what happens at other sites.  The chaos suite
(``tests/test_faults.py``) runs a repeated session query stream under
seeded random plans and asserts objectives bit-identical to the
fault-free run: every injected fault must end in full recovery, a
recorded degradation, or a clean error — never a wrong answer, never
a poisoned cache.

Arming:

* per test / in process::

      with inject(FaultPlan.from_spec("store.write:0.5:2:enospc", seed=7)):
          ...

* via environment, for chaos CI and subprocesses::

      REPRO_FAULTS="seed=7,store.read:0.2,store.fsync:0.1:1:kill" pytest ...

  The module arms itself from ``REPRO_FAULTS`` at import time, which
  is what carries a plan into a child process started with that
  environment — the crash-recovery tests' writer subprocess imports
  this module afresh and parses the same plan, with no arming code of
  its own.

Disarmed cost: :func:`fault_point` is one module-global load and a
``None`` check.  Every store read and write passes one, so the
``session_mixed`` workload of ``python3 bench/run.py`` prices the
disarmed hooks into its end-to-end latency.
"""

from __future__ import annotations

import errno as _errno
import os
import random
import threading

__all__ = [
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "SITES",
    "arm_from_env",
    "fault_point",
    "fired_counts",
    "inject",
]

#: The registry of recognized injection sites (see the module table).
SITES = (
    "store.read",
    "store.write",
    "store.fsync",
    "server.execute",
)

#: Recognized rule actions (see the module docstring).
ACTIONS = ("error", "enospc", "eacces", "torn", "kill")

_ERRNO_FOR_ACTION = {"enospc": _errno.ENOSPC, "eacces": _errno.EACCES}


class InjectedFault(OSError):
    """A deliberately injected failure.

    Subclasses ``OSError`` so the store's I/O-degradation paths handle
    an injected disk fault exactly like a real one; carries the site
    name so logs and tests can tell injected faults from genuine ones.
    """

    def __init__(self, site, action="error"):
        code = _ERRNO_FOR_ACTION.get(action, _errno.EIO)
        super().__init__(code, f"injected fault at {site!r} ({action})")
        self.site = site
        self.action = action


class FaultRule:
    """One site's firing schedule inside a plan.

    Args:
        site: an entry of :data:`SITES`.
        rate: probability each arrival fires (1.0 = every arrival).
        times: cap on total fires (``None`` = unlimited).
        action: one of :data:`ACTIONS`.
    """

    def __init__(self, site, rate=1.0, times=None, action="error"):
        if site not in SITES:
            raise ValueError(
                f"unknown fault site {site!r} (choose from {', '.join(SITES)})"
            )
        if action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {action!r} "
                f"(choose from {', '.join(ACTIONS)})"
            )
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        self.site = site
        self.rate = rate
        self.times = times
        self.action = action

    def __repr__(self):
        return (
            f"FaultRule({self.site!r}, rate={self.rate}, "
            f"times={self.times}, action={self.action!r})"
        )


class FaultPlan:
    """A seeded set of fault rules, one per site.

    Thread-safe: arrivals from concurrent server workers draw under a
    lock, so the per-site fire sequence is deterministic for a
    deterministic arrival sequence at that site.
    """

    def __init__(self, rules, seed=0):
        self.seed = int(seed)
        self._rules = {}
        for rule in rules:
            if rule.site in self._rules:
                raise ValueError(f"duplicate rule for site {rule.site!r}")
            self._rules[rule.site] = rule
        self._rngs = {
            site: random.Random(f"{self.seed}:{site}")
            for site in self._rules
        }
        self._lock = threading.Lock()
        #: site -> times fired (exposed via :func:`fired_counts`).
        self.fired = dict.fromkeys(self._rules, 0)
        #: site -> arrivals observed (fired or not).
        self.arrivals = dict.fromkeys(self._rules, 0)

    @classmethod
    def from_spec(cls, spec, seed=None):
        """Parse a ``REPRO_FAULTS``-style spec string.

        Grammar: comma-separated items, each either ``seed=N`` or
        ``site[:rate[:times[:action]]]``.  Examples::

            "store.write"                       # always fire, forever
            "store.read:0.2"                    # 20% of reads
            "store.write:1.0:2:enospc"          # first two writes ENOSPC
            "seed=7,store.fsync:0.1:1:kill"     # one writer kill, p=0.1
        """
        rules = []
        parsed_seed = 0
        for item in filter(None, (part.strip() for part in spec.split(","))):
            if item.startswith("seed="):
                parsed_seed = int(item[5:])
                continue
            pieces = item.split(":")
            try:
                site = pieces[0]
                rate = float(pieces[1]) if len(pieces) > 1 else 1.0
                times = int(pieces[2]) if len(pieces) > 2 else None
                action = pieces[3] if len(pieces) > 3 else "error"
            except (ValueError, IndexError):
                raise ValueError(f"malformed fault spec item {item!r}") from None
            rules.append(FaultRule(site, rate=rate, times=times, action=action))
        if not rules:
            raise ValueError(f"fault spec {spec!r} names no sites")
        return cls(rules, seed=seed if seed is not None else parsed_seed)

    @property
    def sites(self):
        return tuple(self._rules)

    def arrival(self, site):
        """Record one arrival at ``site``; the rule if it fires, else None."""
        rule = self._rules.get(site)
        if rule is None:
            return None
        with self._lock:
            self.arrivals[site] += 1
            if rule.times is not None and self.fired[site] >= rule.times:
                return None
            if rule.rate < 1.0 and self._rngs[site].random() >= rule.rate:
                return None
            self.fired[site] += 1
        return rule

    def counts(self):
        """``{site: {"arrivals", "fired"}}`` snapshot."""
        with self._lock:
            return {
                site: {
                    "arrivals": self.arrivals[site],
                    "fired": self.fired[site],
                }
                for site in self._rules
            }


#: The active plan.  A plain module global, not thread-local: server
#: worker threads and the handler pool must all see one plan.
_PLAN = None
_INSTALL_LOCK = threading.Lock()


class inject:
    """Context manager installing ``plan`` as the active plan.

    Nests: the previous plan (usually ``None``) is restored on exit.
    """

    def __init__(self, plan):
        self._plan = plan
        self._previous = None

    def __enter__(self):
        global _PLAN
        with _INSTALL_LOCK:
            self._previous = _PLAN
            _PLAN = self._plan
        return self._plan

    def __exit__(self, *exc_info):
        global _PLAN
        with _INSTALL_LOCK:
            _PLAN = self._previous
        return False


def active_plan():
    """The installed :class:`FaultPlan`, or ``None`` when disarmed."""
    return _PLAN


def fired_counts():
    """Per-site arrival/fire counters of the active plan (``{}`` when
    disarmed).  Surfaced by the server's ``/stats`` faults block."""
    plan = _PLAN
    return plan.counts() if plan is not None else {}


def fault_point(site):
    """The single hook every injection site calls.

    Disarmed (no active plan): one global load + ``None`` check.
    Armed: draws the site's rule; on fire, ``error``/``enospc``/
    ``eacces`` raise :class:`InjectedFault`, ``kill`` exits the
    process (simulating a crashed writer), and ``torn`` is *returned*
    for the call site to interpret.  Returns ``None`` when nothing
    fires.
    """
    plan = _PLAN
    if plan is None:
        return None
    rule = plan.arrival(site)
    if rule is None:
        return None
    if rule.action == "kill":
        os._exit(73)  # noqa: SLF001 - deliberate crash simulation
    if rule.action == "torn":
        return "torn"
    raise InjectedFault(site, rule.action)


def arm_from_env(environ=None):
    """Install a plan from ``REPRO_FAULTS`` (chaos CI / subprocesses).

    No-op when the variable is unset or a plan is already installed
    (an explicitly injected plan wins over the environment).  Returns
    the active plan.
    """
    global _PLAN
    environ = os.environ if environ is None else environ
    spec = environ.get("REPRO_FAULTS")
    if spec:
        with _INSTALL_LOCK:
            if _PLAN is None:
                _PLAN = FaultPlan.from_spec(spec)
    return _PLAN


# A child process started with REPRO_FAULTS in its environment (the
# crash-recovery tests' writer subprocess) imports this module afresh:
# arming at import time is what carries the plan into it.
arm_from_env()
