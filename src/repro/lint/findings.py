"""The :class:`Finding` record every checker emits."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Finding:
    """One static-analysis diagnostic.

    Attributes:
        path: Repo-relative (or invocation-relative) file path.
        line: 1-based line the finding anchors to (0 = whole file).
        col: 0-based column.
        code: Checker code (``RL001`` ... ``RL011``).
        message: Human-readable description; kept free of line numbers so
            baseline fingerprints survive unrelated edits.
    """

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        """The canonical one-line form: ``path:line:col CODE message``."""
        return f"{self.path}:{self.line}:{self.col} {self.code} {self.message}"

    @property
    def fingerprint(self) -> tuple[str, str, str]:
        """Line-independent identity used for baseline matching."""
        return (self.path, self.code, self.message)

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }
