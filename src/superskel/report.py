"""Pass/fail reports produced by the check_* operations and the selftest suites."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckItem:
    label: str
    passed: bool
    detail: str = ""
    skipped: bool = False


@dataclass
class CheckReport:
    title: str
    items: list[CheckItem] = field(default_factory=list)

    def add(self, label: str, passed: bool, detail: str = "") -> None:
        self.items.append(CheckItem(label, passed, detail))

    def add_skip(self, label: str, detail: str = "") -> None:
        self.items.append(CheckItem(label, True, detail, skipped=True))

    @property
    def ok(self) -> bool:
        """All items passed, and at least one of them was not skipped."""
        return (all(item.passed for item in self.items)
                and any(not item.skipped for item in self.items))

    @property
    def failures(self) -> list[CheckItem]:
        return [item for item in self.items if not item.passed]

    def counts(self) -> tuple[int, int, int]:
        passed = sum(1 for i in self.items if i.passed and not i.skipped)
        failed = sum(1 for i in self.items if not i.passed)
        skipped = sum(1 for i in self.items if i.skipped)
        return passed, failed, skipped

    def summary(self, verbose: bool = False) -> str:
        passed, failed, skipped = self.counts()
        lines = []
        for item in self.items:
            if not item.passed:
                lines.append(f"FAIL {item.label}" + (f": {item.detail}" if item.detail else ""))
            elif item.skipped:
                lines.append(f"skip {item.label}" + (f": {item.detail}" if item.detail else ""))
            elif verbose:
                lines.append(f"ok   {item.label}")
        status = "PASS" if self.ok else "FAIL"
        lines.append(f"{status} {self.title}: {passed} passed, {failed} failed, {skipped} skipped")
        return "\n".join(lines)
