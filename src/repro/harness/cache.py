"""Persistent on-disk cache for simulation results.

Every (workload, iteration count, model, parameter overrides, code version)
point maps to a content-hash key; the :class:`SimResult` for that point is
pickled under ``<cache_dir>/<key[:2]>/<key>.pkl``.  A warm run therefore
skips tracing *and* simulation entirely, which is what makes repeated
pytest/benchmark sessions cheap (see DESIGN.md Section 8).

The code version folded into every key is a hash over the simulator's own
source tree (isa, kernel, uarch, workloads, energy), so editing anything
that could change simulation results silently invalidates old entries --
no manual cache management needed.  Harness/CLI files are deliberately
excluded: they orchestrate runs but cannot change a point's outcome.

Cache location: ``$REPRO_CACHE_DIR`` if set, else ``.repro-cache`` under
the current working directory.  Writes are atomic (tempfile + rename), so
concurrent pytest sessions can safely share one cache.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import Optional

from ..kernel import precompute as precompute_mod
from ..kernel import tracestore

# Bump when the pickled payload layout changes incompatibly.
FORMAT_VERSION = 1

# Bump when the ConfigSpec canonical encoding (dotted keys, scalar
# coercion, default-dropping) changes incompatibly: every result key
# embeds the spec's canonical dict, so this versions the key vocabulary.
CONFIG_FORMAT_VERSION = 1

# Source packages whose content determines simulation results.
_VERSIONED_PACKAGES = ("isa", "kernel", "uarch", "workloads", "energy")

# The subset that determines the *functional* trace (no timing model):
# a uarch-only edit keeps every packed trace valid.
_FUNCTIONAL_PACKAGES = ("isa", "kernel", "workloads")

# The files whose content determines a precompute bundle (given a valid
# trace): the bundle builder itself and the branch predictor it replays.
_PRECOMPUTE_FILES = ("kernel/precompute.py", "uarch/branch.py")

_CODE_VERSION: Optional[str] = None
_FUNCTIONAL_VERSION: Optional[str] = None
_PRECOMPUTE_VERSION: Optional[str] = None


def _hash_packages(packages) -> str:
    digest = hashlib.sha256()
    package_root = Path(__file__).resolve().parent.parent
    for package in packages:
        for path in sorted((package_root / package).glob("*.py")):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _hash_files(relative_paths) -> str:
    digest = hashlib.sha256()
    package_root = Path(__file__).resolve().parent.parent
    for rel in relative_paths:
        path = package_root / rel
        digest.update(rel.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def code_version() -> str:
    """Hash of every source file that can affect a simulation result."""
    global _CODE_VERSION
    if _CODE_VERSION is None:
        _CODE_VERSION = _hash_packages(_VERSIONED_PACKAGES)
    return _CODE_VERSION


def functional_version() -> str:
    """Hash of every source file that can affect a *functional trace*."""
    global _FUNCTIONAL_VERSION
    if _FUNCTIONAL_VERSION is None:
        _FUNCTIONAL_VERSION = _hash_packages(_FUNCTIONAL_PACKAGES)
    return _FUNCTIONAL_VERSION


def precompute_version() -> str:
    """Hash of the sources that can change a precompute bundle's tables."""
    global _PRECOMPUTE_VERSION
    if _PRECOMPUTE_VERSION is None:
        _PRECOMPUTE_VERSION = _hash_files(_PRECOMPUTE_FILES)
    return _PRECOMPUTE_VERSION


def canonical(value):
    """JSON-serialisable canonical form of a parameter override value.

    Handles the value types experiments actually pass: enums, (frozen)
    dataclasses such as :class:`PredictorParams`, containers, and scalars.
    """
    if isinstance(value, enum.Enum):
        return [type(value).__name__, value.value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [type(value).__name__,
                {f.name: canonical(getattr(value, f.name))
                 for f in dataclasses.fields(value)}]
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError("cannot canonicalise override of type %s"
                    % type(value).__name__)


def default_cache_dir() -> Path:
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro-cache"))


def default_ledger_dir() -> Path:
    """Where ``--ledger`` (no path) drops sweep ledgers: beside the
    result/trace entries they narrate, so one cache dir is the whole
    story of a machine's runs."""
    return default_cache_dir() / "ledgers"


class LedgerDir:
    """Maintenance view over the sweep-ledger directory.

    Ledgers are not content-addressed (each run writes a fresh file),
    but they share the cache tree's maintenance idiom: finalised
    ``*.jsonl`` files are the entries, and ``*.jsonl.tmp`` orphans --
    left by runs killed before :meth:`JsonlLedger.close` renamed them
    -- are swept by :meth:`gc` exactly like the stores' atomic-write
    temp files.
    """

    suffix = ".jsonl"

    def __init__(self, root: Optional[Path] = None):
        self.root = Path(root) if root is not None else default_ledger_dir()

    # -- maintenance ---------------------------------------------------------

    def entries(self):
        return sorted(self.root.glob("*" + self.suffix))

    def entry_count(self) -> int:
        return len(self.entries())

    def size_bytes(self) -> int:
        total = 0
        for path in self.entries():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def tmp_files(self):
        """Ledgers of runs that died before finalising (still ``.tmp``)."""
        return sorted(self.root.glob("*" + self.suffix + ".tmp"))

    def gc(self, min_age_seconds: float = 0.0) -> int:
        """Sweep ``*.jsonl.tmp`` ledgers orphaned by killed runs."""
        removed = 0
        now = time.time()
        for path in self.tmp_files():
            try:
                if now - path.stat().st_mtime >= min_age_seconds:
                    path.unlink()
                    removed += 1
            except OSError:
                pass
        return removed

    def clear(self) -> int:
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        self.gc()
        return removed


class ResultCache:
    """Content-addressed pickle store for :class:`SimResult` objects."""

    def __init__(self, root: Optional[Path] = None,
                 version: Optional[str] = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.version = version if version is not None else code_version()
        self.hits = 0
        self.misses = 0

    # -- keys --------------------------------------------------------------

    def key_for_spec(self, workload: str, iterations: int, spec) -> str:
        """Key for a :class:`~repro.config.ConfigSpec`-described point.

        The spec's canonical dict (model + default-dropped settings) is
        the sole configuration material, so any two constructions of the
        same parameters -- bare overrides, dotted ``--set`` flags, a grid
        expansion -- hit one entry.  ``config_format`` versions the spec
        vocabulary itself: bump it alongside CONFIG_FORMAT_VERSION when
        the canonical settings encoding changes incompatibly.
        """
        material = json.dumps({
            "format": FORMAT_VERSION,
            "config_format": CONFIG_FORMAT_VERSION,
            # Results are simulated *from* an encoded trace, so a trace
            # format bump conservatively invalidates them too (instead of
            # ever trusting stats derived from a mis-decoded blob).
            "trace_format": tracestore.TRACE_FORMAT_VERSION,
            "code": self.version,
            "workload": workload,
            "iterations": iterations,
            "spec": spec.to_dict(),
        }, sort_keys=True)
        return hashlib.sha256(material.encode()).hexdigest()

    def key_for(self, workload: str, iterations: int, model,
                overrides: dict) -> str:
        """Legacy overrides-dict key surface; derives the key from the
        equivalent ConfigSpec so both entry points share one entry."""
        from ..config import ConfigSpec
        spec = ConfigSpec.from_overrides(model, **overrides)
        return self.key_for_spec(workload, iterations, spec)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / (key + ".pkl")

    # -- storage ------------------------------------------------------------

    def get(self, key: str):
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                result = pickle.load(handle)
        except Exception:
            # Any unreadable entry -- truncated pickle, garbage bytes,
            # a payload whose class/module no longer exists -- is a
            # clean miss; the next put() overwrites (repairs) it.
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Atomic publish: concurrent sessions never observe partial files.
        fd, tmp_name = tempfile.mkstemp(dir=str(path.parent),
                                        suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # -- maintenance ----------------------------------------------------------

    def entries(self):
        return sorted(self.root.glob("??/*.pkl"))

    def entry_count(self) -> int:
        return len(self.entries())

    def size_bytes(self) -> int:
        total = 0
        for path in self.entries():
            try:
                total += path.stat().st_size
            except OSError:
                pass    # deleted by a concurrent session between glob+stat
        return total

    def tmp_files(self):
        """In-flight (or orphaned) atomic-write temp files."""
        return sorted(self.root.glob("??/*.tmp"))

    def gc(self, min_age_seconds: float = 0.0) -> int:
        """Sweep ``*.tmp`` files orphaned by killed sessions.

        A live writer holds its temp file only for the duration of one
        ``pickle.dump`` + rename, so anything older than
        ``min_age_seconds`` (default: everything) is an orphan from a
        session that died mid-put.  Returns the number removed.
        """
        removed = 0
        now = time.time()
        for path in self.tmp_files():
            try:
                if now - path.stat().st_mtime >= min_age_seconds:
                    path.unlink()
                    removed += 1
            except OSError:
                pass    # vanished (or swept by a concurrent gc)
        return removed

    def clear(self) -> int:
        """Delete every cached result (and sweep orphaned temp files);
        returns the number of results removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        self.gc()
        return removed


class TraceStore:
    """Persistent store of packed functional traces (DESIGN.md section 12).

    One blob per (workload, iterations, functional-semantics version,
    trace format version) under ``<cache_root>/traces/<key[:2]>/<key>.trc``.
    The key hashes only the *functional* sources (isa, kernel, workloads):
    timing-model edits keep traces valid, while any edit that could change
    what the functional CPU retires silently invalidates them.  Blobs are
    written atomically and loaded read-only via ``mmap``, so every sweep
    worker shares one page-cache copy; any unreadable/mismatched blob is
    a clean miss, repaired by the next put.
    """

    def __init__(self, root: Optional[Path] = None,
                 version: Optional[str] = None):
        if root is not None:
            self.root = Path(root)
        else:
            self.root = default_cache_dir() / "traces"
        self.version = (version if version is not None
                        else functional_version())
        self.hits = 0
        self.misses = 0

    # -- keys --------------------------------------------------------------

    def key_for(self, workload: str, iterations: int) -> str:
        material = json.dumps({
            "trace_format": tracestore.TRACE_FORMAT_VERSION,
            "functional": self.version,
            "workload": workload,
            "iterations": iterations,
        }, sort_keys=True)
        return hashlib.sha256(material.encode()).hexdigest()

    def path_for(self, workload: str, iterations: int) -> Path:
        key = self.key_for(workload, iterations)
        return self.root / key[:2] / (key + ".trc")

    # -- storage ------------------------------------------------------------

    def load(self, workload: str, iterations: int, program):
        """The packed trace for a point, or None (miss) -- never raises."""
        path = self.path_for(workload, iterations)
        try:
            packed = tracestore.load_trace(path, program)
        except Exception:
            # Missing, truncated, garbage, format-bumped, or packed for a
            # different program: a clean miss; the next put repairs it.
            self.misses += 1
            return None
        self.hits += 1
        return packed

    def put(self, workload: str, iterations: int, packed) -> Optional[Path]:
        """Atomically persist a trace; returns its path."""
        packed = tracestore.pack_trace(packed.program, packed)
        path = self.path_for(workload, iterations)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(packed.to_bytes())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    # -- maintenance ---------------------------------------------------------

    def entries(self):
        return sorted(self.root.glob("??/*.trc"))

    def entry_count(self) -> int:
        return len(self.entries())

    def size_bytes(self) -> int:
        total = 0
        for path in self.entries():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def tmp_files(self):
        return sorted(self.root.glob("??/*.tmp"))

    def gc(self, min_age_seconds: float = 0.0) -> int:
        """Sweep ``*.tmp`` blobs orphaned by killed sessions."""
        removed = 0
        now = time.time()
        for path in self.tmp_files():
            try:
                if now - path.stat().st_mtime >= min_age_seconds:
                    path.unlink()
                    removed += 1
            except OSError:
                pass
        return removed

    def clear(self) -> int:
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        self.gc()
        return removed


class PrecomputeStore:
    """Persistent store of whole-trace precompute bundles (DESIGN.md §14).

    One ``.pre`` blob per (workload, iterations, predictor signature,
    functional/trace-format/precompute versions) living in the *same*
    ``traces/`` tree as the ``.trc`` blobs it annotates, so cache info,
    gc, and clear naturally manage them together.  The key folds
    everything that can change the tables: the trace identity material
    (a bundle is meaningless without its trace) plus
    ``PRECOMPUTE_FORMAT_VERSION`` and a hash of the precompute/branch
    sources, so editing the predictor silently invalidates stale
    bundles.  Blobs are CRC'd, written atomically, read back and decoded
    into lists, and any unreadable/mismatched blob is a clean miss.
    """

    suffix = ".pre"

    def __init__(self, root: Optional[Path] = None,
                 version: Optional[str] = None):
        if root is not None:
            self.root = Path(root)
        else:
            self.root = default_cache_dir() / "traces"
        self.functional = (version if version is not None
                           else functional_version())
        self.version = precompute_version()
        self.hits = 0
        self.misses = 0

    # -- keys --------------------------------------------------------------

    def key_for(self, workload: str, iterations: int, signature) -> str:
        material = json.dumps({
            "trace_format": tracestore.TRACE_FORMAT_VERSION,
            "precompute_format": precompute_mod.PRECOMPUTE_FORMAT_VERSION,
            "functional": self.functional,
            "precompute": self.version,
            "workload": workload,
            "iterations": iterations,
            "signature": list(signature),
        }, sort_keys=True)
        return hashlib.sha256(material.encode()).hexdigest()

    def path_for(self, workload: str, iterations: int, signature) -> Path:
        key = self.key_for(workload, iterations, signature)
        return self.root / key[:2] / (key + self.suffix)

    # -- storage ------------------------------------------------------------

    def load(self, workload: str, iterations: int, trace, signature):
        """The bundle for a (point, trace) pair, or None -- never raises."""
        path = self.path_for(workload, iterations, signature)
        try:
            bundle = precompute_mod.load_precompute(path, trace, signature)
        except Exception:
            # Missing, truncated, garbage, format-bumped, or built for a
            # different trace: a clean miss; the next put repairs it.
            self.misses += 1
            return None
        self.hits += 1
        return bundle

    def put(self, workload: str, iterations: int, bundle) -> Optional[Path]:
        """Atomically persist a bundle; returns its path."""
        path = self.path_for(workload, iterations, bundle.signature)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(bundle.to_bytes())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    # -- maintenance ---------------------------------------------------------
    # Temp files in the shared traces/ tree are swept by TraceStore.gc
    # (one sweep covers both blob kinds), so there is no gc() here.

    def entries(self):
        return sorted(self.root.glob("??/*" + self.suffix))

    def entry_count(self) -> int:
        return len(self.entries())

    def size_bytes(self) -> int:
        total = 0
        for path in self.entries():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def clear(self) -> int:
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


class NullPrecomputeStore:
    """Precompute-store stand-in that persists nothing (``--no-cache``)."""

    root = None
    hits = 0
    misses = 0

    def key_for(self, workload, iterations, signature) -> str:
        return ""

    def path_for(self, workload, iterations, signature):
        return None

    def load(self, workload, iterations, trace, signature):
        return None

    def put(self, workload, iterations, bundle):
        return None

    def entries(self):
        return []

    def entry_count(self) -> int:
        return 0

    def size_bytes(self) -> int:
        return 0

    def clear(self) -> int:
        return 0


class NullTraceStore:
    """Trace-store stand-in that persists nothing (``--no-cache``)."""

    root = None
    hits = 0
    misses = 0

    def key_for(self, workload, iterations) -> str:
        return ""

    def path_for(self, workload, iterations):
        return None

    def load(self, workload, iterations, program):
        return None

    def put(self, workload, iterations, packed):
        return None

    def entries(self):
        return []

    def entry_count(self) -> int:
        return 0

    def size_bytes(self) -> int:
        return 0

    def tmp_files(self):
        return []

    def gc(self, min_age_seconds: float = 0.0) -> int:
        return 0

    def clear(self) -> int:
        return 0


class NullCache:
    """Cache stand-in that stores nothing (``--no-cache``)."""

    root = None
    hits = 0
    misses = 0

    def key_for(self, workload, iterations, model, overrides) -> str:
        return ""

    def key_for_spec(self, workload, iterations, spec) -> str:
        return ""

    def get(self, key):
        return None

    def put(self, key, result) -> None:
        pass

    def entry_count(self) -> int:
        return 0

    def size_bytes(self) -> int:
        return 0

    def tmp_files(self):
        return []

    def gc(self, min_age_seconds: float = 0.0) -> int:
        return 0

    def clear(self) -> int:
        return 0
