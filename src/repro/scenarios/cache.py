"""Content-hash disk cache for scenario runs.

Every completed :func:`~repro.scenarios.run_scenario` serialises its
:class:`~repro.reporting.ExperimentResult` to JSON under a file named by
the spec's content hash.  A spec whose model kwargs, initial condition,
horizon, observables or question list change gets a new hash — stale
artifacts are never served — while a mere rename keeps its cache (the
hash covers the computation, not the label).

Location: ``$REPRO_CACHE_DIR`` when set, else
``~/.cache/repro-scenarios``.  Entries are self-contained JSON (the
result payload wrapped with the scenario name, schema version and the
full spec payload) so they survive library upgrades gracefully: an
entry with an unknown schema — or a stored spec payload that does not
match the requesting spec exactly — is ignored, not an error.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import tempfile
from typing import Optional, Tuple, Union

import repro
from repro import telemetry
from repro.reporting import ExperimentResult
from repro.scenarios.spec import ScenarioSpec

__all__ = ["cache_dir", "cache_path", "load_cached", "load_cached_detail",
           "store_result", "clear_cache", "CACHE_SCHEMA_VERSION",
           "CACHE_HIT", "MISS_REASONS"]

#: Bump when the cached payload layout (not the spec hash) changes.
CACHE_SCHEMA_VERSION = 2

#: ``load_cached_detail`` outcome labels.  ``CACHE_HIT`` means a result
#: was served; every other label is a distinguishable miss reason, each
#: mirrored onto the telemetry registry as
#: ``scenarios.cache.miss.<reason>``.
CACHE_HIT = "hit"
MISS_ABSENT = "absent"
MISS_CORRUPT = "corrupt"
MISS_SCHEMA = "schema"
MISS_LIBRARY = "library-version"
MISS_PAYLOAD = "payload-mismatch"
MISS_REASONS = (MISS_ABSENT, MISS_CORRUPT, MISS_SCHEMA, MISS_LIBRARY,
                MISS_PAYLOAD)

_ENV_VAR = "REPRO_CACHE_DIR"

#: Cache entries are named ``<16-hex-digit spec hash>.json``.
_HASH_NAME = re.compile(r"[0-9a-f]{16}\.json")
_TMP_NAME = re.compile(r"[0-9a-f]{16}-.*\.tmp")


def cache_dir(override: Union[str, pathlib.Path, None] = None) -> pathlib.Path:
    """Resolve the cache directory (override > env var > default)."""
    if override is not None:
        return pathlib.Path(override)
    env = os.environ.get(_ENV_VAR)
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro-scenarios"


def cache_path(spec: ScenarioSpec,
               directory: Union[str, pathlib.Path, None] = None) -> pathlib.Path:
    """The cache file a spec maps to (may not exist yet)."""
    return cache_dir(directory) / f"{spec.spec_hash()}.json"


def _classify_entry(spec: ScenarioSpec, path: pathlib.Path,
                    ) -> Tuple[Optional[ExperimentResult], str]:
    if not path.exists():
        return None, MISS_ABSENT
    try:
        wrapper = json.loads(path.read_text())
    except OSError:
        # Raced deletion between the exists() probe and the read still
        # means the entry is gone, not broken.
        return None, MISS_ABSENT if not path.exists() else MISS_CORRUPT
    except ValueError:
        return None, MISS_CORRUPT
    if not isinstance(wrapper, dict):
        return None, MISS_CORRUPT
    if wrapper.get("schema") != CACHE_SCHEMA_VERSION:
        return None, MISS_SCHEMA
    # Entries computed by a different library version are stale even
    # when the spec is unchanged — a backend fix must not keep serving
    # pre-fix numbers out of ~/.cache forever.
    if wrapper.get("library") != repro.__version__:
        return None, MISS_LIBRARY
    # The filename is already the (truncated) spec hash; comparing the
    # *full* stored payload detects the residual collision case and any
    # hash-scheme drift across library versions.
    if wrapper.get("spec_payload") != spec.payload():
        return None, MISS_PAYLOAD
    try:
        return ExperimentResult.from_json(wrapper["result"]), CACHE_HIT
    except (KeyError, TypeError, ValueError):
        return None, MISS_CORRUPT


def load_cached_detail(spec: ScenarioSpec,
                       directory: Union[str, pathlib.Path, None] = None,
                       ) -> Tuple[Optional[ExperimentResult], str]:
    """Like :func:`load_cached`, but also says *why* a lookup missed.

    Returns ``(result, CACHE_HIT)`` on a hit, else ``(None, reason)``
    with ``reason`` one of :data:`MISS_REASONS`.  The outcome is also
    recorded on the telemetry registry (``scenarios.cache.hit`` /
    ``scenarios.cache.miss.<reason>``) when telemetry is enabled.
    """
    result, reason = _classify_entry(spec, cache_path(spec, directory))
    if reason == CACHE_HIT:
        telemetry.inc("scenarios.cache.hit")
    else:
        telemetry.inc("scenarios.cache.miss")
        telemetry.inc(f"scenarios.cache.miss.{reason}")
    return result, reason


def load_cached(spec: ScenarioSpec,
                directory: Union[str, pathlib.Path, None] = None,
                ) -> Optional[ExperimentResult]:
    """Load the cached result of a spec, or ``None`` on any miss.

    Corrupt or schema-incompatible entries count as misses (the runner
    recomputes and overwrites them) — the cache must never be able to
    fail a run.  :func:`load_cached_detail` distinguishes the reasons.
    """
    return load_cached_detail(spec, directory)[0]


def store_result(spec: ScenarioSpec, result: ExperimentResult,
                 directory: Union[str, pathlib.Path, None] = None,
                 ) -> pathlib.Path:
    """Write a run's result to the cache; returns the file path.

    The write is atomic (unique temp file + rename), so neither a
    crashed run nor concurrent runs of the same spec can publish a
    half-written entry.  A *transient* ``OSError`` during publication
    (anti-virus scanners, overlay filesystems, a concurrent
    ``clear_cache`` sweeping the temp file) gets one retry with a fresh
    temp file — stamped on ``resilience.cache.store_retries`` — before
    the error propagates to the caller's degrade-to-uncached handling.
    """
    path = cache_path(spec, directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    wrapper = {
        "schema": CACHE_SCHEMA_VERSION,
        "library": repro.__version__,
        "scenario": spec.name,
        "spec_payload": spec.payload(),
        "result": json.loads(result.to_json()),
    }
    payload = json.dumps(wrapper, indent=1)
    retries_c = telemetry.live_counter("resilience.cache.store_retries")
    last_error: Optional[OSError] = None
    for attempt in range(2):
        # The temp file is recreated per attempt: the previous one may
        # have been unlinked by the finally below or swept by a racing
        # clear_cache, so it cannot be reused.
        fd, tmp_name = tempfile.mkstemp(
            prefix=f"{spec.spec_hash()}-", suffix=".tmp", dir=path.parent
        )
        tmp = pathlib.Path(tmp_name)
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            tmp.replace(path)
            return path
        except OSError as exc:
            last_error = exc
            if attempt == 0 and retries_c is not None:
                retries_c.inc()
        finally:
            tmp.unlink(missing_ok=True)
    raise last_error


def clear_cache(directory: Union[str, pathlib.Path, None] = None,
                scenario: Optional[str] = None) -> int:
    """Delete cached entries; returns the number removed.

    ``scenario`` restricts deletion to entries recorded under that
    scenario name (as stamped at store time).  Safe against concurrent
    writers and other clearers: entries deleted underneath the glob are
    tolerated (the raced ``read_text`` classifies as unreadable, the
    ``unlink`` ignores already-missing files) rather than raised.
    """
    root = cache_dir(directory)
    if not root.is_dir():
        return 0
    # Sweep crashed writers' debris — but only files matching our own
    # mkstemp pattern ("<16-hex-hash>-*.tmp"); an arbitrary *.tmp in a
    # user-supplied directory is not ours to delete.
    for leftover in root.glob("*.tmp"):
        if _TMP_NAME.match(leftover.name):
            leftover.unlink(missing_ok=True)
    removed = 0
    for path in root.glob("*.json"):
        try:
            wrapper = json.loads(path.read_text())
        except (OSError, ValueError):
            wrapper = None
        # Ours = carries our full wrapper shape ("schema" alone is too
        # weak — JSON-schema'd user configs have that key too).
        ours = (isinstance(wrapper, dict)
                and isinstance(wrapper.get("schema"), int)
                and "spec_payload" in wrapper)
        # Hash-named files are ours even when corrupt (exactly the
        # entries most worth clearing); anything else unrecognised is a
        # user file — never delete it.
        if not ours and not _HASH_NAME.fullmatch(path.name):
            continue
        if scenario is not None and ours and wrapper.get("scenario") != scenario:
            continue
        path.unlink(missing_ok=True)
        removed += 1
    return removed
