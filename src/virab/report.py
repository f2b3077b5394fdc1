"""Structured results for check suites.

Every verification entry point returns a :class:`Report`: suite name, an
echo of the parameters, how many checks ran, the failures (each with the
violated constraint id, the witness indices and the nonzero residue,
preformatted as text), wall-clock time, and an optional suite-specific
``data`` payload (e.g. the orbit dimension trace).  A report is "pass"
exactly when it has no failures.  Every params value is a string:
:func:`echo_params` echoes a non-string field as its JSON text.

Reports serialize to a stable JSON document; ``from_dict(to_dict(r))``
round-trips and re-serializes to identical JSON: ``to_json`` writes
``json.dumps(r.to_dict(), indent=2)``'s bytes.  An indent makes ``json``
drop its C encoder, so the failures, most of a failing report, are written
from one template of that layout, and only the rest through json.dumps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any


# a failure and its indices (ints and strings) as to_json lays them out;
# values by json.dumps' default encoder (strings: encode_basestring_ascii)
_FAILURE = ('{\n      "constraint": %s,\n      "indices": %s,'
            '\n      "residue": %s\n    }')
_INDICES = "[\n        %s\n      ]"
_json_value = json.JSONEncoder().encode


def echo_params(doc: dict[str, Any]) -> dict[str, str]:
    """``doc`` as Report params: a non-string value as its JSON text."""
    return {k: v if isinstance(v, str) else json.dumps(v)
            for k, v in doc.items()}


@dataclass
class Failure:
    constraint: str
    indices: tuple[Any, ...]
    residue: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "constraint": self.constraint,
            "indices": list(self.indices),
            "residue": self.residue,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> Failure:
        return cls(
            constraint=doc["constraint"],
            indices=tuple(doc["indices"]),
            residue=doc["residue"],
        )


@dataclass
class Report:
    suite: str
    params: dict[str, str] = field(default_factory=dict)
    checks: int = 0
    failures: list[Failure] = field(default_factory=list)
    elapsed: float = 0.0
    data: dict[str, Any] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def fail(self, constraint: str, indices: tuple[Any, ...], residue: str) -> None:
        self.failures.append(Failure(constraint, indices, residue))

    def to_dict(self) -> dict[str, Any]:
        return self._doc([f.to_dict() for f in self.failures])

    def _doc(self, failures: list) -> dict[str, Any]:
        return {
            "suite": self.suite,
            "params": dict(self.params),
            "checks": self.checks,
            "failures": failures,
            "status": "pass" if self.passed else "fail",
            "elapsed_s": self.elapsed,
            "data": self.data,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> Report:
        report = cls(
            suite=doc["suite"],
            params=dict(doc["params"]),
            checks=doc["checks"],
            failures=[Failure.from_dict(f) for f in doc["failures"]],
            elapsed=doc["elapsed_s"],
            data=doc.get("data", {}),
        )
        status = doc["status"]
        if status != ("pass" if report.passed else "fail"):
            raise ValueError("status is inconsistent with failure count")
        return report

    def to_json(self) -> str:
        text = json.dumps(self._doc([]), indent=2)
        if not self.failures:
            return text
        failures = ",\n    ".join(_FAILURE % (
            _json_value(f.constraint),
            _INDICES % ",\n        ".join(map(_json_value, f.indices))
            if f.indices else "[]",
            _json_value(f.residue)) for f in self.failures)
        return text.replace('\n  "failures": []',
                            f'\n  "failures": [\n    {failures}\n  ]', 1)

    def to_text(self) -> str:
        lines = [f"suite: {self.suite}"]
        for k, v in self.params.items():
            lines.append(f"  {k}: {v}")
        lines.append(f"checks: {self.checks}")
        lines.append(f"failures: {len(self.failures)}")
        for f in self.failures[:20]:
            idx = ", ".join(str(i) for i in f.indices)
            lines.append(f"  FAIL {f.constraint} @ ({idx}): residue = {f.residue}")
        if len(self.failures) > 20:
            lines.append(f"  ... and {len(self.failures) - 20} more")
        for k, v in self.data.items():
            lines.append(f"{k}: {v}")
        lines.append(f"status: {'pass' if self.passed else 'fail'}")
        lines.append(f"elapsed: {self.elapsed:.3f}s")
        return "\n".join(lines)
