"""Generic manifest-driven file fetcher that fills a dataset directory.

The manifest is a plain-text file; each non-comment line maps a plain
file name to a URL and its expected SHA-256 hex digest:

    Substation.csv  https://example.org/Substation.csv  3a7bd3e2360a3d29...
    # comments and blank lines are ignored

Each file is written to ``<data dir>/<name>``. A file already there
whose content matches the expected digest is reused without touching
the network; a file whose content differs is never silently
overwritten. Each failure is a :class:`FetchError` that carries only
its message, which names the dataset or the path.
"""

from __future__ import annotations

import hashlib
import os
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import urlparse

DOWNLOAD_TIMEOUT_S = 30.0  # socket timeout of each download, in seconds


class FetchError(Exception):
    pass


class ManifestError(FetchError):
    pass


class NetworkError(FetchError):
    """Transport failure; safe to retry."""


class HashMismatch(FetchError):
    def __init__(self, dataset: str, expected: str, actual: str, where: str):
        super().__init__(
            f"{dataset}: {where} hash {actual} does not match expected {expected}"
        )


@dataclass(frozen=True, slots=True)
class ManifestEntry:
    name: str
    url: str
    sha256: str


def parse_manifest(path) -> tuple[ManifestEntry, ...]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    entries = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ManifestError(
                f"{path}: line {lineno}: expected '<name> <url> <sha256>', got {raw!r}"
            )
        name, url, digest = parts
        if Path(name).name != name or name in (".", ".."):
            raise ManifestError(f"{path}: line {lineno}: name {name!r} is not a plain file name")
        digest = digest.lower()
        if len(digest) != 64 or any(c not in "0123456789abcdef" for c in digest):
            raise ManifestError(f"{path}: line {lineno}: bad sha256 digest {digest!r}")
        try:
            if not urlparse(url).scheme:
                raise ValueError("no scheme")
        except ValueError as exc:
            raise ManifestError(f"{path}: line {lineno}: bad url {url!r}: {exc}") from None
        if name in seen:
            raise ManifestError(f"{path}: line {lineno}: duplicate dataset name {name}")
        seen.add(name)
        entries.append(ManifestEntry(name, url, digest))
    return tuple(entries)


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _download(entry: ManifestEntry) -> bytes:
    try:
        with urllib.request.urlopen(entry.url, timeout=DOWNLOAD_TIMEOUT_S) as response:
            return response.read()
    except (urllib.error.URLError, OSError) as exc:
        raise NetworkError(f"fetching {entry.name}: {exc}") from exc


def fetch_dataset(manifest_path, data_dir) -> list[Path]:
    """Write every manifest entry to ``data_dir/<name>``; return the paths.

    Entries already present with the expected content are returned
    without any network access. A file-system failure raises a
    FetchError naming the path.
    """
    entries = parse_manifest(manifest_path)  # a bad manifest creates no directory
    data_dir = Path(data_dir)
    try:
        data_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise FetchError(f"cannot create data directory {data_dir}: {exc}") from exc
    paths = []
    for entry in entries:
        target = data_dir / entry.name
        if target.exists():
            try:
                actual = _sha256_file(target)
            except OSError as exc:
                raise FetchError(f"cannot read {target}: {exc}") from exc
            if actual != entry.sha256:
                raise HashMismatch(entry.name, entry.sha256, actual, f"existing {target}")
            paths.append(target)
            continue
        payload = _download(entry)
        actual = hashlib.sha256(payload).hexdigest()
        if actual != entry.sha256:
            raise HashMismatch(entry.name, entry.sha256, actual, "downloaded")
        tmp = target.with_suffix(target.suffix + ".part")
        try:
            tmp.write_bytes(payload)
            try:
                os.replace(tmp, target)
            except OSError:
                tmp.unlink()  # only a written .part file is ours to remove
                raise
        except OSError as exc:
            raise FetchError(f"cannot write {target}: {exc}") from exc
        paths.append(target)
    return paths
