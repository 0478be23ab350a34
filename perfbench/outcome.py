"""What a workload run returns to ``run.py``."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class Outcome:
    """Operations attempted and failed, metrics, report lines, check failures."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    lines: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    def check(self, condition: bool, message: str) -> None:
        """Record ``message`` as a correctness failure unless ``condition`` holds."""
        if not condition:
            self.errors.append(message)

    def say(self, text: str) -> None:
        """Add a line to the human-readable report."""
        self.lines.append(text)
