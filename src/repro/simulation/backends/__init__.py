"""Pluggable packed-simulation backends.

Four registry entries ship with the library:

* ``bigint`` — the reference engine (Python big-int bitwise ops);
* ``numpy`` — levelized, type-batched ``uint64`` matrix engine, with a
  fused batched fault-simulation kernel
  (:mod:`repro.simulation.backends.fault_kernel`): the
  :class:`ArrayApiBackend` pinned to the numpy namespace;
* ``array_api`` — the same engine on a configurable array namespace
  (``numpy`` default, ``cupy``/other via ``--array-namespace`` /
  :attr:`repro.runtime.RuntimeOptions.array_namespace` /
  ``$REPRO_ARRAY_NAMESPACE``) — the GPU/accelerator path;
* ``sharded`` — meta-backend partitioning fault lists over
  ``multiprocessing`` workers (``numpy`` inside each worker); plain
  packed simulation delegates to the inner engine.

All backends produce bit-identical packed words, fault-detection words
and IEEE-identical derived floats; the choice only affects speed.
Selection, in precedence order:

1. an explicit ``backend=`` argument (name or instance) on the public
   entry points (``simulate_packed``, ``simulate_cycles``,
   ``fault_simulate``, ``evaluate_scan_power``, the observability
   estimators, ...);
2. a session default installed via :func:`set_default_backend` (the CLI's
   ``--backend`` flag does this);
3. the ``REPRO_SIM_BACKEND`` environment variable;
4. the built-in default, ``bigint``.

Fault simulation resolves one extra level: an explicit fault-engine spec
(``fault_simulate(backend=...)``, ``FlowConfig.fault_backend``/
``.shards``, the CLI's ``--fault-backend``/``--shards``) wins; otherwise
``REPRO_FAULT_BACKEND`` overrides the *whole* chain above — it is a
targeted knob so e.g. CI can force sharded fault simulation across a run
regardless of how the plain backend was chosen; otherwise the session
chain (2-4) applies.

Third-party engines register with :func:`register_backend` and become
addressable by name everywhere.
"""

from __future__ import annotations

import os

from repro.errors import SimulationError
from repro.simulation.backends.array_api import ArrayApiBackend, ArrayApiState
from repro.simulation.backends.base import Backend, SimState
from repro.simulation.backends.bigint import BigIntBackend, BigIntState
from repro.simulation.backends.sharded import ShardedBackend

__all__ = [
    "Backend",
    "SimState",
    "ArrayApiBackend",
    "ArrayApiState",
    "BigIntBackend",
    "BigIntState",
    "ShardedBackend",
    "register_backend",
    "available_backends",
    "get_backend",
    "resolve_backend",
    "resolve_fault_backend",
    "set_default_backend",
    "default_backend_name",
    "default_fault_backend_name",
    "DEFAULT_BACKEND_ENV",
    "DEFAULT_FAULT_BACKEND_ENV",
]

#: Environment variable consulted for the session default backend.
DEFAULT_BACKEND_ENV = "REPRO_SIM_BACKEND"

#: Environment variable overriding the default backend for *fault
#: simulation* only (falls back to the session default when unset).
DEFAULT_FAULT_BACKEND_ENV = "REPRO_FAULT_BACKEND"

_REGISTRY: dict[str, Backend] = {}


def register_backend(backend: Backend, overwrite: bool = False) -> Backend:
    """Register ``backend`` under its :attr:`~Backend.name`.

    Raises :class:`SimulationError` on a duplicate name unless
    ``overwrite`` is set.
    """
    if not backend.name:
        raise SimulationError("backend has no name")
    if backend.name in _REGISTRY and not overwrite:
        raise SimulationError(
            f"backend {backend.name!r} is already registered")
    _REGISTRY[backend.name] = backend
    return backend


def available_backends() -> tuple[str, ...]:
    """Names of all registered backends, sorted."""
    return tuple(sorted(_REGISTRY))


def get_backend(name: str) -> Backend:
    """Look a backend up by name; raises :class:`SimulationError` when
    unknown."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SimulationError(
            f"unknown simulation backend {name!r}; "
            f"available: {', '.join(available_backends())}") from None


def set_default_backend(name: str | None) -> None:
    """Install the session-default backend (``None`` resets to the env/
    built-in default).  The name is validated immediately.

    Equivalent to ``repro.runtime.set_session_defaults(backend=name)``
    — the session level lives in the unified
    :class:`repro.runtime.RuntimeOptions` store.
    """
    if name is not None:
        get_backend(name)
    from repro.runtime import set_session_defaults
    set_session_defaults(backend=name)


def default_backend_name() -> str:
    """The session default: override, else environment, else ``bigint``."""
    from repro.runtime import session_defaults
    override = session_defaults().backend
    if override is not None:
        return override
    return os.environ.get(DEFAULT_BACKEND_ENV, "") or "bigint"


def resolve_backend(backend: str | Backend | None) -> Backend:
    """Turn a backend spec (name, instance or ``None``) into an instance."""
    if backend is None:
        return get_backend(default_backend_name())
    if isinstance(backend, Backend):
        return backend
    return get_backend(backend)


def default_fault_backend_name() -> str:
    """Default engine for fault simulation.

    The session-level *fault* backend
    (:attr:`repro.runtime.RuntimeOptions.fault_backend`) when
    installed, else ``$REPRO_FAULT_BACKEND`` (a targeted override that
    deliberately outranks the session *simulation* backend — see the
    module docstring), else the plain session default chain.  Results
    are bit-identical either way; only speed changes.
    """
    from repro.runtime import session_defaults
    override = session_defaults().fault_backend
    if override is not None:
        return override
    return os.environ.get(DEFAULT_FAULT_BACKEND_ENV, "") or \
        default_backend_name()


def resolve_fault_backend(backend: str | Backend | None) -> Backend:
    """Like :func:`resolve_backend`, but ``None`` resolves through
    :func:`default_fault_backend_name`."""
    if backend is None:
        return get_backend(default_fault_backend_name())
    return resolve_backend(backend)


register_backend(BigIntBackend())
register_backend(ArrayApiBackend("numpy", name="numpy"))
register_backend(ArrayApiBackend())
register_backend(ShardedBackend())
