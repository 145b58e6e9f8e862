"""Structured JSON-lines event logger.

One event per line: ``{"ts": ..., "level": "info", "event": "train.epoch",
...fields}``.  Machine-parseable by design — the lint test in
``tests/obs/test_lint_clean_instrumentation.py`` forbids bare ``print(``
in ``src/repro/`` precisely so diagnostic output flows through here and
stays greppable/aggregatable.

The logger is independent of the metrics/span master switch: it is gated
only by its level threshold (default WARNING, so routine instrumentation
is silent).  The threshold check is a single integer comparison, keeping
disabled ``debug``/``info`` calls effectively free.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Dict, Optional, TextIO, Union

__all__ = [
    "LEVELS",
    "StructuredLogger",
    "get_logger",
    "log_event",
    "log_debug",
    "log_info",
    "log_warning",
    "log_error",
]

LEVELS: Dict[str, int] = {"debug": 10, "info": 20, "warning": 30, "error": 40}
_LEVEL_NAMES = {v: k for k, v in LEVELS.items()}


def _level_value(level: Union[int, str]) -> int:
    if isinstance(level, str):
        try:
            return LEVELS[level.lower()]
        except KeyError:
            raise ValueError(
                f"unknown log level {level!r}; choose from {sorted(LEVELS)}"
            ) from None
    return int(level)


class StructuredLogger:
    """Leveled JSON-lines logger writing to a text sink (default stderr)."""

    def __init__(
        self,
        level: Union[int, str] = "warning",
        sink: Optional[TextIO] = None,
    ):
        self._threshold = _level_value(level)
        self._sink = sink

    # ------------------------------------------------------------------
    @property
    def threshold(self) -> int:
        return self._threshold

    def set_level(self, level: Union[int, str]) -> None:
        self._threshold = _level_value(level)

    def set_sink(self, sink: Optional[TextIO]) -> None:
        self._sink = sink

    # ------------------------------------------------------------------
    def log(
        self, level: Union[int, str], event: str, _force: bool = False, **fields
    ) -> None:
        """Emit one structured event if ``level`` passes the threshold.

        ``_force=True`` bypasses the threshold — for output the caller
        explicitly asked for (e.g. ``Trainer(verbose=True)``).
        """
        value = _level_value(level)
        if not _force and value < self._threshold:
            return
        record = {
            "ts": time.time_ns() / 1e9,
            "level": _LEVEL_NAMES.get(value, str(value)),
            "event": event,
        }
        record.update(fields)
        sink = self._sink if self._sink is not None else sys.stderr
        sink.write(json.dumps(record, default=str) + "\n")

    def debug(self, event: str, **fields) -> None:
        self.log("debug", event, **fields)

    def info(self, event: str, **fields) -> None:
        self.log("info", event, **fields)

    def warning(self, event: str, **fields) -> None:
        self.log("warning", event, **fields)

    def error(self, event: str, **fields) -> None:
        self.log("error", event, **fields)


_logger = StructuredLogger()


def get_logger() -> StructuredLogger:
    """The process-wide logger used by all instrumented modules."""
    return _logger


def log_event(level: Union[int, str], event: str, _force: bool = False, **fields) -> None:
    _logger.log(level, event, _force=_force, **fields)


# The suppressed paths below pre-check the threshold before entering
# ``log()`` — debug/info calls sit in hot loops and must stay sub-µs when
# filtered (``_logger`` is a mutated singleton, never rebound, so reading
# its threshold here is safe).
_DEBUG = LEVELS["debug"]
_INFO = LEVELS["info"]


def log_debug(event: str, **fields) -> None:
    if _DEBUG < _logger._threshold:
        return
    _logger.log(_DEBUG, event, **fields)


def log_info(event: str, _force: bool = False, **fields) -> None:
    if not _force and _INFO < _logger._threshold:
        return
    _logger.log(_INFO, event, _force=_force, **fields)


def log_warning(event: str, **fields) -> None:
    _logger.log("warning", event, **fields)


def log_error(event: str, **fields) -> None:
    _logger.log("error", event, **fields)
