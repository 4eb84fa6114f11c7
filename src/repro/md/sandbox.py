"""Task sandboxes: where engine input/output files live.

Each compute unit runs in a sandbox, exactly like RADICAL-Pilot creates a
directory per unit.  Two backends share one interface:

* in-memory (default) — a dict; used by the scaling benchmarks where a
  1728-replica sweep would otherwise create hundreds of thousands of tiny
  files, and
* on-disk — real files under a root path; used by the validation example
  and the adapter tests so the text formats are genuinely written and
  re-parsed from disk.

Adapters write structured files as *records* (:meth:`Sandbox.write_record`):
typed values holding exactly what the file's parser would read back, plus
a ``render()`` method producing the file text.  The backend decides
whether that text exists: on disk it is written and parsed on every read;
in memory the record itself is stored and handed back by
:meth:`Sandbox.read_record`, and text is rendered only when something
reads the file as text or asks its size.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Optional, Protocol, Type, TypeVar, Union


class FileRecord(Protocol):
    """A typed file: its values plus the text a real engine would write."""

    def render(self) -> str:
        """The file's text."""


_R = TypeVar("_R")


class SandboxError(IOError):
    """Raised for missing files or writes outside the sandbox."""


class Sandbox:
    """A flat, named file namespace backed by memory or by a directory."""

    def __init__(self, root: Optional[os.PathLike] = None):
        self._root = Path(root) if root is not None else None
        self._mem: Dict[str, Union[str, FileRecord]] = {}
        if self._root is not None:
            self._root.mkdir(parents=True, exist_ok=True)

    @property
    def on_disk(self) -> bool:
        """True when backed by a real directory."""
        return self._root is not None

    @property
    def root(self) -> Optional[Path]:
        """Backing directory, or None for the in-memory backend."""
        return self._root

    def _path(self, name: str) -> Path:
        assert self._root is not None
        p = (self._root / name).resolve()
        if self._root.resolve() not in p.parents and p != self._root.resolve():
            raise SandboxError(f"path escapes sandbox: {name!r}")
        return p

    def write_text(self, name: str, text: str) -> None:
        """Create or overwrite a file."""
        if self._root is None:
            self._mem[name] = text
        else:
            p = self._path(name)
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_text(text)

    def write_record(self, name: str, record: FileRecord) -> None:
        """Create or overwrite a file from a typed record.

        The in-memory backend stores ``record`` itself; the on-disk backend
        writes ``record.render()``.
        """
        if self._root is None:
            self._mem[name] = record
        else:
            self.write_text(name, record.render())

    def read_record(self, name: str, kind: Type[_R]) -> _R:
        """Read a file as a ``kind`` record.

        Returns the stored record when the in-memory backend holds one of
        type ``kind``; otherwise parses the file's text with
        ``kind.parse`` (on disk, or for a file written as text).
        """
        if self._root is None:
            value = self._mem.get(name)
            if type(value) is kind:
                return value
        return kind.parse(self.read_text(name))

    def read_text(self, name: str) -> str:
        """Read a file's contents (a stored record is rendered).

        Raises
        ------
        SandboxError
            If the file does not exist.
        """
        if self._root is None:
            try:
                value = self._mem[name]
            except KeyError:
                raise SandboxError(f"no such file in sandbox: {name!r}") from None
            return value if type(value) is str else value.render()
        p = self._path(name)
        if not p.is_file():
            raise SandboxError(f"no such file in sandbox: {name!r}")
        return p.read_text()

    def exists(self, name: str) -> bool:
        """Whether a file has been written."""
        if self._root is None:
            return name in self._mem
        return self._path(name).is_file()

    def listdir(self) -> List[str]:
        """Sorted names of all files in the sandbox."""
        if self._root is None:
            return sorted(self._mem)
        out = []
        for p in self._root.rglob("*"):
            if p.is_file():
                out.append(str(p.relative_to(self._root)))
        return sorted(out)

    def size_mb(self, name: str) -> float:
        """File size in MB (UTF-8 length of the text for the memory backend)."""
        if self._root is None:
            return len(self.read_text(name).encode()) / 1.0e6
        p = self._path(name)
        if not p.is_file():
            raise SandboxError(f"no such file in sandbox: {name!r}")
        return p.stat().st_size / 1.0e6

    def remove(self, name: str) -> None:
        """Delete a file.

        Raises
        ------
        SandboxError
            If the file does not exist.
        """
        if self._root is None:
            if name not in self._mem:
                raise SandboxError(f"no such file in sandbox: {name!r}")
            del self._mem[name]
        else:
            p = self._path(name)
            if not p.is_file():
                raise SandboxError(f"no such file in sandbox: {name!r}")
            p.unlink()
