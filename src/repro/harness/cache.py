"""Persistent on-disk stores: simulation results, packed traces,
precompute bundles, and the sweep-ledger directory.

Every (workload, iteration count, config spec, code version) point maps
to a content-hash key; the :class:`SimResult` for that point is
pickled under ``<cache_dir>/<key[:2]>/<key>.pkl``.  A warm run therefore
skips tracing *and* simulation entirely, which is what makes repeated
pytest/benchmark sessions cheap (see DESIGN.md Section 8).

The code version folded into every key is a hash over the simulator's own
source tree (isa, kernel, uarch, workloads, energy), so editing anything
that could change simulation results silently invalidates old entries --
no manual cache management needed.  Harness/CLI files are deliberately
excluded: they orchestrate runs but cannot change a point's outcome.

Every store is a :class:`BlobStore`: one directory with one layout,
atomic publish (tempfile + rename, so concurrent pytest sessions can
safely share one cache), corrupt-blob-as-miss reads, and one set of
maintenance calls (entries, size, gc of orphaned temp files, clear).
A store built with ``root=None`` is disabled: it persists nothing.
The default location is ``$REPRO_CACHE_DIR`` if set, else
``.repro-cache`` under the current working directory
(:func:`default_cache_dir`).
"""

from __future__ import annotations

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


def default_cache_dir() -> Path:
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro-cache"))


def default_ledger_dir() -> Path:
    """Where ``--ledger`` (no path) drops sweep ledgers: beside the
    result/trace entries they narrate, so one cache dir is the whole
    story of a machine's runs."""
    return default_cache_dir() / "ledgers"


def _digest(material: dict) -> str:
    """The content-hash key for one blob's identity material."""
    encoded = json.dumps(material, sort_keys=True).encode()
    return hashlib.sha256(encoded).hexdigest()


def _unpickle(path: Path):
    with open(path, "rb") as handle:
        return pickle.load(handle)


class BlobStore:
    """One directory of blobs: ``root/<key[:2]>/<key><suffix>``.

    Publishing is atomic (tempfile + rename), so a reader never sees a
    partial blob and a killed writer can only orphan a ``*.tmp`` file,
    which :meth:`gc` sweeps.  A blob that fails to decode -- truncated,
    garbage, format-bumped, built for different inputs -- is a clean
    miss, repaired by the next write.  With ``root=None`` the store is
    disabled: lookups return None without counting, writes return None,
    and maintenance sees no files.
    """

    suffix = ""
    entry_glob = "??/*"
    tmp_glob = "??/*.tmp"

    def __init__(self, root: Optional[Path] = None):
        self.root = Path(root) if root is not None else None
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Optional[Path]:
        if self.root is None:
            return None
        return self.root / key[:2] / (key + self.suffix)

    def _read(self, path: Optional[Path], decode):
        """``decode(path)``; None when the store is disabled or the
        decode raises (a counted miss).  Never raises."""
        if path is None:
            return None
        try:
            value = decode(path)
        except Exception:
            self.misses += 1
            return None
        self.hits += 1
        return value

    def _write(self, path: Path, data: bytes) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    # -- maintenance ---------------------------------------------------------

    def _glob(self, pattern: str):
        return [] if self.root is None else sorted(self.root.glob(pattern))

    def entries(self):
        return self._glob(self.entry_glob + self.suffix)

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
        return self._glob(self.tmp_glob)

    def gc(self, min_age_seconds: float = 0.0) -> int:
        """Sweep temp files orphaned by killed sessions.

        A live writer holds its temp file only for the duration of one
        write + rename, so anything older than ``min_age_seconds``
        (default: everything) is an orphan from a session that died
        mid-write.  Returns the number removed.
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
        """Delete every entry (and sweep orphaned temp files); returns
        the number of entries removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        self.gc()
        return removed


class LedgerDir(BlobStore):
    """Maintenance view over the sweep-ledger directory.

    Ledgers are not content-addressed (each run writes a fresh file),
    but they share the stores' maintenance idiom: finalised ``*.jsonl``
    files are the entries, and ``*.jsonl.tmp`` orphans -- left by runs
    killed before :meth:`JsonlLedger.close` renamed them -- are swept by
    :meth:`gc` exactly like the stores' atomic-write temp files.
    """

    suffix = ".jsonl"
    entry_glob = "*"
    tmp_glob = "*.jsonl.tmp"


class ResultCache(BlobStore):
    """Content-addressed pickle store for :class:`SimResult` objects."""

    suffix = ".pkl"

    def __init__(self, root: Optional[Path] = None,
                 version: Optional[str] = None):
        super().__init__(root)
        self.version = version if version is not None else code_version()

    # -- keys --------------------------------------------------------------

    def key_for_spec(self, workload: str, iterations: int, spec) -> str:
        """Key for a :class:`~repro.config.ConfigSpec`-described point.

        The spec's canonical dict (model + default-dropped settings) is
        the sole configuration material, so any two constructions of the
        same parameters -- dotted ``--set`` flags, an ``ABLATIONS`` entry,
        a grid expansion -- hit one entry.  ``config_format`` versions the spec
        vocabulary itself: bump it alongside CONFIG_FORMAT_VERSION when
        the canonical settings encoding changes incompatibly.
        """
        return _digest({
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
        })

    # -- storage ------------------------------------------------------------

    def get(self, key: str):
        # Any unreadable entry -- truncated pickle, garbage bytes, a
        # payload whose class/module no longer exists -- is a miss.
        return self._read(self._path(key), _unpickle)

    def put(self, key: str, result) -> None:
        path = self._path(key)
        if path is not None:
            self._write(path, pickle.dumps(
                result, protocol=pickle.HIGHEST_PROTOCOL))


class TraceStore(BlobStore):
    """Persistent store of packed functional traces (DESIGN.md section 12).

    One blob per (workload, iterations, functional-semantics version,
    trace format version) under ``<cache_root>/traces/<key[:2]>/<key>.trc``.
    The key hashes only the *functional* sources (isa, kernel, workloads):
    timing-model edits keep traces valid, while any edit that could change
    what the functional CPU retires silently invalidates them.  Blobs are
    loaded read-only via ``mmap``, so every sweep worker shares one
    page-cache copy.  This store's :meth:`gc` sweeps the temp files of
    the whole ``traces/`` tree, the precompute blobs' included.
    """

    suffix = ".trc"

    def __init__(self, root: Optional[Path] = None,
                 version: Optional[str] = None):
        super().__init__(root)
        self.version = (version if version is not None
                        else functional_version())

    # -- keys --------------------------------------------------------------

    def key_for(self, workload: str, iterations: int) -> str:
        return _digest({
            "trace_format": tracestore.TRACE_FORMAT_VERSION,
            "functional": self.version,
            "workload": workload,
            "iterations": iterations,
        })

    def path_for(self, workload: str, iterations: int) -> Optional[Path]:
        """The blob's path; None when the store is disabled, which hashes
        no key."""
        if self.root is None:
            return None
        return self._path(self.key_for(workload, iterations))

    # -- storage ------------------------------------------------------------

    def load(self, workload: str, iterations: int, program):
        """The packed trace for a point, or None (miss) -- never raises.

        A blob packed for a different program is a miss too."""
        return self._read(self.path_for(workload, iterations),
                          lambda path: tracestore.load_trace(path, program))

    def put(self, workload: str, iterations: int, packed) -> Optional[Path]:
        """Atomically persist a trace; returns its path."""
        path = self.path_for(workload, iterations)
        if path is None:
            return None
        packed = tracestore.pack_trace(packed.program, packed)
        return self._write(path, packed.to_bytes())


class PrecomputeStore(BlobStore):
    """Persistent store of whole-trace precompute bundles (DESIGN.md §14).

    One ``.pre`` blob per (workload, iterations, predictor signature,
    functional/trace-format/precompute versions) living in the *same*
    ``traces/`` tree as the ``.trc`` blobs it annotates, so cache info,
    gc, and clear naturally manage them together.  The key folds
    everything that can change the tables: the trace identity material
    (a bundle is meaningless without its trace) plus
    ``PRECOMPUTE_FORMAT_VERSION`` and a hash of the precompute/branch
    sources, so editing the predictor silently invalidates stale
    bundles.  Blobs are CRC'd and decoded into lists.
    """

    suffix = ".pre"

    def __init__(self, root: Optional[Path] = None,
                 version: Optional[str] = None):
        super().__init__(root)
        self.functional = (version if version is not None
                           else functional_version())
        self.version = precompute_version()

    # -- keys --------------------------------------------------------------

    def key_for(self, workload: str, iterations: int, signature) -> str:
        return _digest({
            "trace_format": tracestore.TRACE_FORMAT_VERSION,
            "precompute_format": precompute_mod.PRECOMPUTE_FORMAT_VERSION,
            "functional": self.functional,
            "precompute": self.version,
            "workload": workload,
            "iterations": iterations,
            "signature": list(signature),
        })

    def path_for(self, workload: str, iterations: int,
                 signature) -> Optional[Path]:
        """The blob's path; None when the store is disabled, which hashes
        no key."""
        if self.root is None:
            return None
        return self._path(self.key_for(workload, iterations, signature))

    # -- storage ------------------------------------------------------------

    def load(self, workload: str, iterations: int, trace, signature):
        """The bundle for a (point, trace) pair, or None -- never raises.

        A bundle built for a different trace is a miss too."""
        # Called through the module so a wrapper installed on
        # ``load_precompute`` (perfbench's spans) sees this call.
        return self._read(
            self.path_for(workload, iterations, signature),
            lambda path: precompute_mod.load_precompute(path, trace,
                                                        signature))

    def put(self, workload: str, iterations: int, bundle) -> Optional[Path]:
        """Atomically persist a bundle; returns its path."""
        path = self.path_for(workload, iterations, bundle.signature)
        if path is None:
            return None
        return self._write(path, bundle.to_bytes())
