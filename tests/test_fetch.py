import hashlib

import pytest

from gridtopo.fetch import (
    FetchError,
    HashMismatch,
    ManifestError,
    NetworkError,
    fetch_dataset,
    parse_manifest,
)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture
def source(tmp_path):
    payload = b"id,name,x,y,voltage_kv\nS1,A,0.0,0.0,240.0\n"
    src = tmp_path / "remote" / "Substation.csv"
    src.parent.mkdir()
    src.write_bytes(payload)
    return src, payload


def write_manifest(tmp_path, lines):
    path = tmp_path / "manifest.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_parse_manifest_skips_comments(tmp_path):
    manifest = write_manifest(
        tmp_path,
        ["# a comment", "", "buses file:///x/y.csv " + "0" * 64],
    )
    (entry,) = parse_manifest(manifest)
    assert entry.name == "buses" and entry.sha256 == "0" * 64


@pytest.mark.parametrize(
    "line",
    [
        "too few",
        "name url " + "z" * 64,  # non-hex digest
        "name url abc",  # digest too short
        "name example.org/a.csv " + "0" * 64,  # url without a scheme
        "name http://[::1/a.csv " + "0" * 64,  # url urlparse rejects
    ],
)
def test_parse_manifest_rejects_malformed(tmp_path, line):
    manifest = write_manifest(tmp_path, ["# header", line])
    with pytest.raises(ManifestError) as err:
        parse_manifest(manifest)
    assert str(err.value).startswith(f"{manifest}: line 2: ")


def test_parse_manifest_names_a_manifest_that_is_not_utf8(tmp_path):
    manifest = tmp_path / "manifest.txt"
    manifest.write_bytes("caf\u00e9 file:///x.csv ".encode("latin-1") + b"0" * 64 + b"\n")
    with pytest.raises(ManifestError) as err:
        parse_manifest(manifest)
    assert str(err.value).startswith(f"cannot read manifest {manifest}: ")


def test_parse_manifest_rejects_duplicates(tmp_path):
    row = "buses file:///x.csv " + "0" * 64
    with pytest.raises(ManifestError):
        parse_manifest(write_manifest(tmp_path, [row, row]))


def test_fetch_empty_manifest(tmp_path):
    manifest = write_manifest(tmp_path, ["# nothing"])
    assert fetch_dataset(manifest, tmp_path / "cache") == []


def test_fetch_downloads_and_caches(tmp_path, source, monkeypatch):
    src, payload = source
    manifest = write_manifest(tmp_path, [f"buses {src.as_uri()} {sha(payload)}"])
    cache = tmp_path / "cache"

    (first,) = fetch_dataset(manifest, cache)
    assert first.read_bytes() == payload
    assert first.name == f"buses-{sha(payload)[:16]}.csv"

    # a cache hit must not touch the network at all
    import gridtopo.fetch as fetch_mod

    def boom(*args, **kwargs):
        raise AssertionError("network used despite cache hit")

    monkeypatch.setattr(fetch_mod, "_download", boom)
    (second,) = fetch_dataset(manifest, cache)
    assert second == first


def test_fetch_detects_corrupted_cache(tmp_path, source):
    src, payload = source
    manifest = write_manifest(tmp_path, [f"buses {src.as_uri()} {sha(payload)}"])
    cache = tmp_path / "cache"
    (path,) = fetch_dataset(manifest, cache)
    path.write_bytes(b"tampered")
    with pytest.raises(HashMismatch):
        fetch_dataset(manifest, cache)
    assert path.read_bytes() == b"tampered"  # never silently overwritten


def test_fetch_rejects_wrong_expected_hash(tmp_path, source):
    src, _payload = source
    manifest = write_manifest(tmp_path, [f"buses {src.as_uri()} {'1' * 64}"])
    cache = tmp_path / "cache"
    with pytest.raises(HashMismatch):
        fetch_dataset(manifest, cache)
    assert list(cache.glob("buses-*")) == []  # bad payloads are not cached


def test_fetch_missing_source_is_network_error(tmp_path):
    gone = (tmp_path / "remote" / "gone.csv").as_uri()
    manifest = write_manifest(tmp_path, [f"buses {gone} {'0' * 64}"])
    with pytest.raises(NetworkError, match="^fetching buses: "):
        fetch_dataset(manifest, tmp_path / "cache")


def test_fetch_with_a_malformed_manifest_creates_no_cache_dir(tmp_path):
    manifest = write_manifest(tmp_path, ["name example.org/a.csv " + "0" * 64])
    cache = tmp_path / "new" / "cache"
    with pytest.raises(ManifestError):
        fetch_dataset(manifest, cache)
    assert not (tmp_path / "new").exists()


def test_fetch_names_a_cache_dir_it_cannot_create(tmp_path):
    manifest = write_manifest(tmp_path, ["# nothing"])
    blocker = tmp_path / "cache"
    blocker.write_bytes(b"")
    with pytest.raises(FetchError) as err:
        fetch_dataset(manifest, blocker)
    assert str(err.value).startswith(f"cannot create cache directory {blocker}: ")


def test_fetch_names_a_cached_file_it_cannot_read(tmp_path, source):
    src, payload = source
    manifest = write_manifest(tmp_path, [f"buses {src.as_uri()} {sha(payload)}"])
    cache = tmp_path / "cache"
    target = cache / f"buses-{sha(payload)[:16]}.csv"
    target.mkdir(parents=True)  # exists, but reading it fails
    with pytest.raises(FetchError) as err:
        fetch_dataset(manifest, cache)
    assert str(err.value).startswith(f"cannot read cached {target}: ")


def test_fetch_names_a_target_it_cannot_write(tmp_path, source):
    src, payload = source
    manifest = write_manifest(tmp_path, [f"buses {src.as_uri()} {sha(payload)}"])
    cache = tmp_path / "cache"
    target = cache / f"buses-{sha(payload)[:16]}.csv"
    (cache / f"{target.name}.part").mkdir(parents=True)  # blocks the partial write
    with pytest.raises(FetchError) as err:
        fetch_dataset(manifest, cache)
    assert str(err.value).startswith(f"cannot write {target}: ")
    assert not target.exists()


def test_fetch_names_a_target_it_cannot_rename_into_place(tmp_path, source, monkeypatch):
    import gridtopo.fetch as fetch_mod

    src, payload = source
    manifest = write_manifest(tmp_path, [f"buses {src.as_uri()} {sha(payload)}"])
    cache = tmp_path / "cache"
    target = cache / f"buses-{sha(payload)[:16]}.csv"

    def refuse(source_path, destination):
        raise OSError(18, "Invalid cross-device link")

    monkeypatch.setattr(fetch_mod.os, "replace", refuse)
    with pytest.raises(FetchError) as err:
        fetch_dataset(manifest, cache)
    assert str(err.value) == f"cannot write {target}: [Errno 18] Invalid cross-device link"
