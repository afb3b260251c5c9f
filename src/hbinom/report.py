"""Uniform check records for the verification suite and CLI output."""

from __future__ import annotations

import json
import time

ENGINE_VERSION = "0.1.0"

PASS = "pass"
FAIL = "fail"
SKIP = "skip"


def utc_isoformat(ns: int) -> str:
    """The instant `ns` nanoseconds after the epoch as
    `datetime.now(timezone.utc).isoformat()` writes it: microseconds floored,
    `.ffffff` left out when they are 0, and the suffix `+00:00`."""
    seconds, us = divmod(ns // 1000, 10 ** 6)
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds))
    return f"{stamp}.{us:06d}+00:00" if us else f"{stamp}+00:00"


class CheckRecord:
    """One verified fact: an identifier, the indices it was checked at, the
    outcome, and both exact sides rendered as strings."""

    __slots__ = ("check", "indices", "status", "lhs", "rhs", "note")

    def __init__(self, check: str, indices: tuple, status: str,
                 lhs: str = "", rhs: str = "", note: str = ""):
        self.check = check
        self.indices = indices
        self.status = status
        self.lhs = lhs
        self.rhs = rhs
        self.note = note

    def to_dict(self) -> dict:
        out = {"check": self.check, "indices": list(self.indices),
               "status": self.status}
        if self.lhs or self.rhs:
            out["lhs"] = self.lhs
            out["rhs"] = self.rhs
        if self.note:
            out["note"] = self.note
        return out


class Report:
    """The records of one run, in the order they were added."""

    def __init__(self):
        self.records: list[CheckRecord] = []

    def add(self, check: str, indices: tuple, ok: bool,
            lhs: str = "", rhs: str = "", note: str = "") -> CheckRecord:
        rec = CheckRecord(check, indices, PASS if ok else FAIL, lhs, rhs, note)
        self.records.append(rec)
        return rec

    def skip(self, check: str, indices: tuple, note: str) -> CheckRecord:
        rec = CheckRecord(check, indices, SKIP, note=note)
        self.records.append(rec)
        return rec

    def count(self, status: str) -> int:
        return sum(1 for r in self.records if r.status == status)

    @property
    def failed(self) -> int:
        return self.count(FAIL)

    @property
    def all_ok(self) -> bool:
        return self.failed == 0

    def to_dict(self, timestamp: str | None = None) -> dict:
        if timestamp is None:
            timestamp = utc_isoformat(time.time_ns())
        return {
            "engine_version": ENGINE_VERSION,
            "generated_at": timestamp,
            "summary": {"pass": self.count(PASS), "fail": self.failed,
                        "skip": self.count(SKIP)},
            "records": [r.to_dict() for r in self.records],
        }

    def to_json(self, timestamp: str | None = None) -> str:
        return json.dumps(self.to_dict(timestamp), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = []
        for r in self.records:
            head = f"[{r.status.upper():4}] {r.check} {tuple(r.indices)}"
            tail = ""
            if r.status == FAIL and (r.lhs or r.rhs):
                tail = f" lhs={r.lhs} rhs={r.rhs}"
            if r.note:
                tail += f" ({r.note})"
            lines.append(head + tail)
        lines.append(f"pass={self.count(PASS)} fail={self.failed} skip={self.count(SKIP)}")
        return "\n".join(lines)
