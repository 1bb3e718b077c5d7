"""Process-lifetime registry of shared-memory segments (the *janitor*).

``multiprocessing.shared_memory`` segments are kernel objects: a crashed
master leaves them behind in ``/dev/shm`` until a reboot.  Every segment
this package creates (index buffers, index deltas, large op payloads) is
therefore routed through this module:

* :func:`create_segment` allocates a segment under a recognizable name
  (``repro_shm_<pid>_<seq>``) and registers it;
* a per-process **spool file** (``<tmpdir>/repro-segment-janitor/<pid>.json``)
  records the registered names, so a later process can tell which segments
  a *dead* process abandoned;
* :func:`cleanup` — wired to ``atexit`` and chained onto ``SIGTERM``/
  ``SIGINT`` on first registration — unlinks everything still registered,
  covering ordinary exits, uncaught exceptions and polite signals;
* :func:`sweep_orphans` — run on every backend start — scans the spool
  directory for files whose owning pid is gone and unlinks the segments
  they list, covering hard crashes (``SIGKILL``, OOM) that no in-process
  hook can survive.

Only the master process creates segments; workers merely attach (via
:func:`attach_segment`, which suppresses resource-tracker adoption so a
worker exit never unlinks the master's segment).
"""

from __future__ import annotations

import atexit
import itertools
import json
import os
import signal
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

try:  # pragma: no cover - availability depends on the platform
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

__all__ = [
    "SEGMENT_PREFIX",
    "attach_segment",
    "cleanup",
    "create_segment",
    "live_mappings",
    "live_segments",
    "register",
    "register_mapping",
    "spool_dir",
    "sweep_orphans",
    "unregister",
    "unregister_mapping",
]

#: Every janitor-managed segment name starts with this (leak checks key on
#: it; foreign segments are never swept).
SEGMENT_PREFIX = "repro_shm_"

_registry: Dict[str, object] = {}
#: Live mmap attachments of on-disk index stores (``IndexMapping``
#: objects, keyed by identity).  A mapping leaves on close, which its
#: index runs when collected, so none stays pinned here past its index
#: and exit closes only the live ones.  Mappings share the janitor's exit
#: hooks but have a strictly *close-only* lifecycle: the backing store is
#: an ordinary file owned by the user, so neither :func:`cleanup` nor
#: :func:`sweep_orphans` may ever unlink it — only shared-memory
#: *segments* (names under :data:`SEGMENT_PREFIX`) are unlinkable.
_mappings: Dict[int, object] = {}
_sequence = itertools.count()
_hooks_installed = False
_previous_handlers: Dict[int, object] = {}


def spool_dir() -> Path:
    """The directory of per-process spool files (created on demand)."""
    path = Path(tempfile.gettempdir()) / "repro-segment-janitor"
    path.mkdir(exist_ok=True)
    return path


def _spool_file(pid: Optional[int] = None) -> Path:
    return spool_dir() / f"{pid if pid is not None else os.getpid()}.json"


def _process_token(pid: int) -> Optional[str]:
    """A pid-reuse-proof identity token: the kernel process start time.

    Field 22 of ``/proc/<pid>/stat`` (``starttime``, in clock ticks since
    boot) is fixed for the life of a process and differs between any two
    processes that recycled the same pid.  Returns ``None`` where procfs is
    unavailable (non-Linux) — callers must then fall back to pid liveness
    alone.
    """
    try:
        stat = Path(f"/proc/{pid}/stat").read_text(encoding="ascii")
    except (OSError, UnicodeDecodeError):
        return None
    # the comm field (2) may contain spaces and parentheses; everything
    # after the *last* ')' is whitespace-separated fields 3..52
    _, _, rest = stat.rpartition(")")
    fields = rest.split()
    if len(fields) < 20:  # pragma: no cover - malformed stat line
        return None
    return f"starttime:{fields[19]}"


def _write_spool() -> None:
    path = _spool_file()
    if not _registry:
        path.unlink(missing_ok=True)
        return
    payload = {
        "token": _process_token(os.getpid()),
        "segments": sorted(_registry),
    }
    # temp-then-replace: a crash mid-write must never leave truncated JSON
    # where a later process's sweep_orphans() would trip over it
    temp = path.with_name(path.name + ".tmp")
    temp.write_text(json.dumps(payload), encoding="utf-8")
    os.replace(temp, path)


def _signal_cleanup(signum, frame):  # pragma: no cover - signal path
    cleanup()
    previous = _previous_handlers.get(signum)
    if callable(previous):
        previous(signum, frame)
    else:
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)


def _install_hooks() -> None:
    """``atexit`` + chained signal handlers, once per process."""
    global _hooks_installed
    if _hooks_installed:
        return
    _hooks_installed = True
    atexit.register(cleanup)
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            _previous_handlers[signum] = signal.signal(
                signum, _signal_cleanup
            )
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass


def register(segment) -> None:
    """Track a master-owned segment until :func:`unregister` or cleanup."""
    _install_hooks()
    _registry[segment.name.lstrip("/")] = segment
    _write_spool()


def unregister(segment) -> None:
    """Stop tracking a segment (its owner released it cleanly)."""
    _registry.pop(segment.name.lstrip("/"), None)
    _write_spool()


def live_segments() -> List[str]:
    """Names currently registered by this process (for tests/metrics)."""
    return sorted(_registry)


def register_mapping(mapping) -> None:
    """Track a live mmap index attachment until close or process exit.

    The janitor only ever *closes* mappings (at :func:`cleanup` time); it
    never unlinks their backing files and :func:`sweep_orphans` never
    touches them — a sweep's unlink authority is restricted to
    :data:`SEGMENT_PREFIX` shared-memory names by construction.
    """
    _install_hooks()
    _mappings[id(mapping)] = mapping


def unregister_mapping(mapping) -> None:
    """Stop tracking a mapping (it was closed deliberately)."""
    _mappings.pop(id(mapping), None)


def live_mappings() -> List[object]:
    """The mmap attachments currently open in this process."""
    return list(_mappings.values())


def create_segment(nbytes: int):
    """A fresh registered segment under the janitor naming scheme."""
    if _shared_memory is None:  # pragma: no cover - platform dependent
        raise RuntimeError("multiprocessing.shared_memory is unavailable")
    while True:
        name = f"{SEGMENT_PREFIX}{os.getpid()}_{next(_sequence)}"
        try:
            segment = _shared_memory.SharedMemory(
                create=True, size=max(1, nbytes), name=name
            )
        except FileExistsError:  # pragma: no cover - pid-reuse collision
            continue
        register(segment)
        return segment


def attach_segment(name: str):
    """Attach a segment without resource-tracker ownership.

    The tracker must not adopt attachments: it would unlink the owner's
    segment when the first attaching process exits.  Python ≥ 3.13 exposes
    ``track=False``; earlier versions need the documented unregister
    workaround.
    """
    try:
        return _shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        # Python < 3.13: attaching registers with the resource tracker,
        # which would unlink the owner's segment (spawn) or unbalance the
        # shared tracker (fork).  Silence registration for this one call.
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return _shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def cleanup() -> List[str]:
    """Unlink every still-registered segment of this process (idempotent).

    Mmap index attachments are *closed* here too — but never unlinked:
    their backing store files are durable user data, not process-lifetime
    kernel objects.
    """
    for mapping in list(_mappings.values()):
        try:
            mapping.close()  # idempotent; unregisters itself
        except Exception:  # pragma: no cover - teardown must not raise
            pass
    _mappings.clear()
    removed: List[str] = []
    for name, segment in list(_registry.items()):
        _registry.pop(name, None)
        try:
            segment.close()
            segment.unlink()
            removed.append(name)
        except FileNotFoundError:
            pass
        except Exception:  # pragma: no cover - teardown must not raise
            pass
    _spool_file().unlink(missing_ok=True)
    return removed


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid exists, not ours
        return True
    return True


def _read_spool(file: Path):
    """Parse one spool file → ``(token, segment names)``.

    Accepts both formats: the current ``{"token": ..., "segments": [...]}``
    object and the legacy bare list (no identity token).  Raises
    ``ValueError`` on corrupt content so the caller can quarantine it.
    """
    data = json.loads(file.read_text(encoding="utf-8") or "[]")
    if isinstance(data, list):
        return None, data
    if isinstance(data, dict):
        segments = data.get("segments", [])
        if not isinstance(segments, list):
            raise ValueError("spool 'segments' is not a list")
        return data.get("token"), segments
    raise ValueError("spool file is neither a list nor an object")


def sweep_orphans(tracer: Any = None) -> List[str]:
    """Unlink segments abandoned by dead processes; returns their names.

    Scans the spool directory: a file whose owning pid no longer exists —
    or whose recorded start-time token proves the pid was *recycled* by an
    unrelated process — belongs to a crashed (``SIGKILL``-ed, OOM-killed)
    master, so its listed segments are unlinked and the file removed.
    Live owners (this process included) are never touched, only
    :data:`SEGMENT_PREFIX` names are swept, and unparseable spool files
    from dead owners are quarantined (renamed ``*.corrupt``) rather than
    retried forever or allowed to abort the sweep.

    ``tracer`` (a :class:`repro.obs.Tracer`, optional) records the sweep
    as a ``janitor_sweep`` typed event with the removed segment names.
    """
    if _shared_memory is None:  # pragma: no cover - platform dependent
        return []
    removed: List[str] = []
    for file in spool_dir().glob("*.json"):
        try:
            pid = int(file.stem)
        except ValueError:
            continue
        if pid == os.getpid():
            continue
        try:
            token, names = _read_spool(file)
        except OSError:
            continue  # raced away or unreadable; retry next sweep
        except ValueError:
            # truncated/garbled JSON: tolerate it, and once the owner is
            # gone move it aside so later sweeps stop re-parsing it
            if not _alive(pid):
                try:
                    file.replace(file.with_suffix(".json.corrupt"))
                except OSError:  # pragma: no cover - raced away
                    pass
            continue
        if _alive(pid):
            current = _process_token(pid)
            if token is None or current is None or token == current:
                # same process still running (or identity unprovable on
                # this platform — then liveness is the best we have)
                continue
            # the pid is alive but belongs to a *different* process: the
            # spool's owner died and the pid was recycled — sweep it
        for name in names:
            # a spool file only ever lists segments its owning pid created
            # (names embed the creator), so anything else is corrupt or
            # foreign — never unlink a live process's segment on its say-so
            if not str(name).startswith(f"{SEGMENT_PREFIX}{pid}_"):
                continue
            try:
                segment = attach_segment(name)
            except FileNotFoundError:
                continue
            try:
                segment.close()
                segment.unlink()
                removed.append(name)
            except FileNotFoundError:  # pragma: no cover - raced away
                pass
        file.unlink(missing_ok=True)
    if tracer is not None and tracer.enabled:
        tracer.event(
            "janitor_sweep", removed=len(removed), segments=list(removed)
        )
    return removed
