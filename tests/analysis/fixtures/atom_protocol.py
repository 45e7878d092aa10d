"""Fixture: ATOM rule true positives and the full-protocol twin.

Injected as ``repro._fixture_atom_protocol``.  ``publish_manifest_safely``
walks the complete durability recipe (write tmp → flush → fsync →
replace → dir fsync) and must produce zero findings.  Never imported at
runtime.
"""

import os


def fsync_directory(path: str) -> None:
    """Stand-in for the checkpoint layer's directory-fsync helper."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def rename_without_any_fsync(tmp_path: str, manifest_path: str) -> None:
    """ATOM001: nothing forces the contents to disk before publication."""
    os.replace(tmp_path, manifest_path)


def rename_without_dir_fsync(tmp_path: str, manifest_path: str,
                             payload: bytes) -> None:
    """ATOM001: file is durable, but the rename itself can be lost."""
    with open(tmp_path, "wb") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp_path, manifest_path)


def fsync_unflushed_handle(tmp_path: str, payload: bytes) -> None:
    """ATOM002: the buffered tail never reaches the kernel."""
    fh = open(tmp_path, "wb")
    fh.write(payload)
    os.fsync(fh.fileno())
    fh.close()


def publish_manifest_safely(tmp_path: str, manifest_path: str,
                            payload: bytes) -> None:
    """Full-protocol twin: zero findings expected."""
    with open(tmp_path, "wb") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp_path, manifest_path)
    fsync_directory(os.path.dirname(manifest_path))


def publish_manifest_gated(tmp_path: str, manifest_path: str,
                           payload: bytes, durable_fsync: bool) -> None:
    """Policy-gated twin (mirrors the checkpoint layer): zero findings."""
    with open(tmp_path, "wb") as fh:
        fh.write(payload)
        fh.flush()
        if durable_fsync:
            os.fsync(fh.fileno())
    os.replace(tmp_path, manifest_path)
    if durable_fsync:
        fsync_directory(os.path.dirname(manifest_path))


def _sync_parent(path: str) -> None:
    fsync_directory(os.path.dirname(path))


def _publish(path: str) -> None:
    _sync_parent(path)


def _close_out(path: str) -> None:
    os.path.exists(path)


def publish_manifest_via_helpers(tmp_path: str, manifest_path: str,
                                 payload: bytes) -> None:
    """Twin whose directory fsync sits two helpers down: zero findings."""
    with open(tmp_path, "wb") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp_path, manifest_path)
    _publish(manifest_path)


def rename_then_helper_without_dir_fsync(tmp_path: str, manifest_path: str,
                                         payload: bytes) -> None:
    """ATOM001: the helper after the rename never fsyncs the directory."""
    with open(tmp_path, "wb") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp_path, manifest_path)
    _close_out(manifest_path)
