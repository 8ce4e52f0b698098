"""Store integrity: digests, the corruption matrix, atomic writes.

The corruption matrix drives every tamper mode the integrity layer
claims to catch through a real saved container:

* truncation (half the file gone) — caught at any verify level, the
  zip central directory is unreadable;
* a flipped byte in each manifest-listed array's decompressed payload,
  re-zipped with a valid CRC — exactly the silent-corruption case only
  the sha256 digests catch, so ``verify="full"`` must raise;
* a missing array — the manifest inventory check catches it at the
  default ``verify="manifest"``;
* a stale digest (manifest lists a wrong hash) — ``verify="full"``
  raises, ``verify="manifest"`` (inventory only) still loads.

Plus: a live :class:`~repro.serve.app.ServeApp` keeps serving the old
generation when a reload hits a corrupted replacement, and the
:func:`~repro.ioutils.atomic_write` helper used by every saver is
all-or-nothing.
"""

from __future__ import annotations

import io
import json
import zipfile
from collections import Counter

import numpy as np
import pytest

from repro.data.context import TransactionDatabase
from repro.errors import (
    InvalidParameterError,
    StoreFormatError,
    StoreIntegrityError,
)
from repro.experiments.harness import (
    build_rule_artifacts,
    mine_itemsets,
    save_artifacts,
)
from repro.ioutils import atomic_write
from repro.serve import ServeApp
from repro.serve.app import SERVED_SECTIONS
from repro.store import load_run, read_manifest
from repro.testing import FaultInjector

FIG1 = [
    ["a", "c", "d"],
    ["b", "c", "e"],
    ["a", "b", "c", "e"],
    ["b", "e"],
    ["a", "b", "c", "e"],
]


def build_store(path):
    db = TransactionDatabase(FIG1, name="fig1")
    mining = mine_itemsets(db, minsup=0.4)
    return save_artifacts(path, mining, build_rule_artifacts(mining, 0.7))


@pytest.fixture()
def store_path(tmp_path):
    return build_store(tmp_path / "fig1.npz")


def rezip(source, dest, mutate):
    """Rewrite the npz *source* into *dest*, passing each decompressed
    member through *mutate(name, payload) -> payload* (valid CRCs out).
    """
    with zipfile.ZipFile(source) as archive:
        members = {name: archive.read(name) for name in archive.namelist()}
    with zipfile.ZipFile(dest, "w", zipfile.ZIP_DEFLATED) as archive:
        for name, payload in members.items():
            archive.writestr(name, mutate(name, payload))


def listed_arrays(path) -> dict[str, str]:
    return read_manifest(path)["integrity"]["arrays"]


class TestDigestsInManifest:
    def test_saved_manifest_lists_every_array(self, store_path):
        manifest = read_manifest(store_path)
        integrity = manifest["integrity"]
        assert integrity["algorithm"] == "sha256"
        with zipfile.ZipFile(store_path) as archive:
            members = {
                name.removesuffix(".npy")
                for name in archive.namelist()
                if name != "manifest.npy"
            }
        assert set(integrity["arrays"]) == members

    def test_full_verify_round_trip(self, store_path):
        run = load_run(store_path, verify="full")
        assert run.name == "fig1"

    def test_bad_verify_mode_rejected(self, store_path):
        with pytest.raises(InvalidParameterError, match="verify"):
            load_run(store_path, verify="paranoid")


class TestCorruptionMatrix:
    def test_truncated_container(self, store_path):
        data = store_path.read_bytes()
        store_path.write_bytes(data[: len(data) // 2])
        with pytest.raises(StoreIntegrityError):
            load_run(store_path)

    def test_flipped_byte_in_each_listed_array(self, store_path, tmp_path):
        """Silent bitrot in any array payload must fail ``verify="full"``.

        The flip happens on the *decompressed* bytes and the member is
        re-zipped, so zip CRCs are valid and only the digests disagree.
        """
        corrupt = tmp_path / "corrupt.npz"
        flipped = 0
        for key in listed_arrays(store_path):
            member = f"{key}.npy"

            def mutate(name, payload, member=member):
                if name != member:
                    return payload
                mutated = bytearray(payload)
                mutated[-1] ^= 0x01  # last byte: array data, not header
                return bytes(mutated)

            rezip(store_path, corrupt, mutate)
            if corrupt.read_bytes() == store_path.read_bytes():
                continue  # zero-byte array; nothing to corrupt
            flipped += 1
            with pytest.raises(StoreIntegrityError, match=key):
                load_run(corrupt, verify="full")
        assert flipped > 0

    def test_missing_array(self, store_path, tmp_path):
        victim = next(iter(listed_arrays(store_path)))
        stripped = tmp_path / "stripped.npz"
        with zipfile.ZipFile(store_path) as archive:
            members = {
                name: archive.read(name)
                for name in archive.namelist()
                if name != f"{victim}.npy"
            }
        with zipfile.ZipFile(stripped, "w", zipfile.ZIP_DEFLATED) as archive:
            for name, payload in members.items():
                archive.writestr(name, payload)
        with pytest.raises(StoreIntegrityError, match=victim):
            load_run(stripped)  # default verify="manifest" suffices

    def test_stale_digest(self, store_path, tmp_path):
        victim = next(iter(listed_arrays(store_path)))
        stale = tmp_path / "stale.npz"

        def mutate(name, payload):
            if name != "manifest.npy":
                return payload
            header_end = payload.index(b"\n") + 1
            manifest = json.loads(bytes(payload[header_end:]))
            manifest["integrity"]["arrays"][victim] = "0" * 64
            body = json.dumps(manifest, sort_keys=True).encode("utf-8")
            buffer = io.BytesIO()
            np.save(buffer, np.frombuffer(body, dtype=np.uint8))
            return buffer.getvalue()

        rezip(store_path, stale, mutate)
        with pytest.raises(StoreIntegrityError, match=victim):
            load_run(stale, verify="full")
        # Inventory-only verification does not recompute digests.
        assert load_run(stale, verify="manifest").name == "fig1"

    def test_legacy_store_without_digests(self, store_path, tmp_path):
        """A pre-integrity container fails closed, with an escape hatch."""
        legacy = tmp_path / "legacy.npz"

        def mutate(name, payload):
            if name != "manifest.npy":
                return payload
            header_end = payload.index(b"\n") + 1
            manifest = json.loads(bytes(payload[header_end:]))
            del manifest["integrity"]
            body = json.dumps(manifest, sort_keys=True).encode("utf-8")
            buffer = io.BytesIO()
            np.save(buffer, np.frombuffer(body, dtype=np.uint8))
            return buffer.getvalue()

        rezip(store_path, legacy, mutate)
        with pytest.raises(StoreIntegrityError, match="verify='off'"):
            load_run(legacy)
        assert load_run(legacy, verify="off").name == "fig1"

    def test_integrity_error_is_a_store_format_error(self):
        assert issubclass(StoreIntegrityError, StoreFormatError)


def member_data_span(path, member: str) -> tuple[int, int]:
    """Byte range ``[start, stop)`` of *member*'s compressed data in a zip."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member)
    data = path.read_bytes()
    offset = info.header_offset
    # Local file header: 30 fixed bytes, then the name and extra fields
    # (whose lengths live at offsets 26 and 28 of the header).
    name_len = int.from_bytes(data[offset + 26 : offset + 28], "little")
    extra_len = int.from_bytes(data[offset + 28 : offset + 30], "little")
    start = offset + 30 + name_len + extra_len
    return start, start + info.compress_size


def corruption_corpus(path, seed: int = 0, per_kind: int = 30):
    """Seeded truncations, bit flips and zeroed ranges of a saved store.

    Yields ``(label, bytes)``.  The ``member`` kind flips bits strictly
    inside one member's *compressed* data, where numpy only notices at
    read time, long after the container was opened.
    """
    rng = np.random.default_rng(seed)
    data = path.read_bytes()
    with zipfile.ZipFile(path) as archive:
        members = archive.namelist()
    for index in range(per_kind):
        cut = int(rng.integers(0, len(data)))
        yield f"truncate-{index}@{cut}", data[:cut]
    for index in range(per_kind):
        mutated = bytearray(data)
        position = int(rng.integers(0, len(data)))
        mutated[position] ^= 1 << int(rng.integers(0, 8))
        yield f"flip-{index}@{position}", bytes(mutated)
    for index in range(per_kind):
        mutated = bytearray(data)
        start = int(rng.integers(0, len(data)))
        stop = min(len(data), start + int(rng.integers(1, 64)))
        mutated[start:stop] = bytes(stop - start)
        yield f"zero-{index}@{start}:{stop}", bytes(mutated)
    for index in range(per_kind):
        member = members[int(rng.integers(0, len(members)))]
        start, stop = member_data_span(path, member)
        mutated = bytearray(data)
        position = int(rng.integers(start, stop))
        mutated[position] ^= 1 << int(rng.integers(0, 8))
        yield f"member-{member}-{index}@{position}", bytes(mutated)


class TestCorruptionCorpus:
    """Hostile bytes end in StoreIntegrityError, never a raw exception."""

    def test_flipped_byte_inside_compressed_manifest(self, store_path):
        start, stop = member_data_span(store_path, "manifest.npy")
        mutated = bytearray(store_path.read_bytes())
        mutated[(start + stop) // 2] ^= 0xFF
        store_path.write_bytes(bytes(mutated))
        for verify in ("off", "manifest", "full"):
            with pytest.raises(StoreIntegrityError):
                load_run(store_path, verify=verify)
        with pytest.raises(StoreIntegrityError):
            read_manifest(store_path)

    def test_corpus_loads_or_raises_integrity_error(self, store_path, tmp_path):
        victim = tmp_path / "victim.npz"
        raised = 0
        for label, payload in corruption_corpus(store_path):
            victim.write_bytes(payload)
            for verify in ("off", "manifest", "full"):
                for retain in (True, False):
                    try:
                        load_run(victim, verify=verify, retain_containment=retain)
                    except StoreIntegrityError:
                        raised += 1
                    except Exception as exc:  # pragma: no cover - the bug
                        pytest.fail(
                            f"{label} (verify={verify}, retain={retain}) "
                            f"escaped as {type(exc).__name__}: {exc}"
                        )
        assert raised > 0

    def test_daemon_keeps_serving_through_the_corpus(self, store_path, tmp_path):
        app = ServeApp(store_path, watch=False)
        original = store_path.read_bytes()
        for label, payload in corruption_corpus(store_path, seed=1, per_kind=5):
            store_path.write_bytes(payload)
            app.request_reload()
            status, health = app.handle("GET", "/healthz")
            assert status == 200, label
            status, _ = app.handle("GET", "/bases/dg/rules")
            assert status == 200, label
        store_path.write_bytes(original)
        app.request_reload()
        status, health = app.handle("GET", "/healthz")
        assert status == 200 and health["status"] == "ok"


class TestReloadKeepsOldGeneration:
    def test_any_load_failure_is_recorded_not_raised(
        self, store_path, monkeypatch
    ):
        """A non-library exception from the loader must not escape either."""
        import zlib

        from repro.serve import app as app_module

        app = ServeApp(store_path)
        calls = []

        def broken_load_run(*args, **kwargs):
            calls.append(args)
            raise zlib.error("Error -3 while decompressing data")

        monkeypatch.setattr(app_module, "load_run", broken_load_run)
        data = store_path.read_bytes()
        store_path.write_bytes(data + b"\0")  # a new signature to notice
        for _ in range(3):
            status, payload = app.handle("GET", "/healthz")
            assert status == 200 and payload["generation"] == 1
        # The failed signature is recorded, so the broken file is tried
        # once, not on every request.
        assert len(calls) == 1
        status, metrics = app.handle("GET", "/metrics")
        assert metrics["reload_failures"] == 1
        assert "decompressing" in metrics["last_reload_error"]


    def test_corrupt_replacement_keeps_serving(self, store_path):
        app = ServeApp(store_path, watch=False)
        status, healthy = app.handle("GET", "/healthz")
        assert status == 200 and healthy["generation"] == 1

        data = store_path.read_bytes()
        store_path.write_bytes(data[: len(data) // 2])
        app.request_reload()  # what the SIGHUP handler calls
        status, payload = app.handle("GET", "/healthz")
        assert status == 200 and payload["generation"] == 1

        status, metrics = app.handle("GET", "/metrics")
        assert metrics["reload_failures"] == 1
        assert metrics["integrity_failures"] == 1
        assert "readable" in metrics["last_reload_error"]

        # ... and the repaired store reloads fine afterwards.
        store_path.write_bytes(data)
        app.request_reload()
        status, payload = app.handle("GET", "/healthz")
        assert status == 200 and payload["generation"] == 2


class TestAtomicWrite:
    def test_success_is_visible_whole(self, tmp_path):
        target = tmp_path / "out.txt"
        with atomic_write(target, "w", encoding="utf-8") as handle:
            handle.write("hello\n")
        assert target.read_text(encoding="utf-8") == "hello\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_failure_leaves_no_trace(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("original", encoding="utf-8")
        with pytest.raises(RuntimeError):
            with atomic_write(target, "w", encoding="utf-8") as handle:
                handle.write("partial")
                raise RuntimeError("crash mid-write")
        assert target.read_text(encoding="utf-8") == "original"
        assert list(tmp_path.iterdir()) == [target]

    def test_append_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="mode"):
            with atomic_write(tmp_path / "x", "a"):
                pass


class TestFaultSpecParsing:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="valid:"):
            FaultInjector("serve.request:explode")

    def test_malformed_entry_rejected(self):
        with pytest.raises(ValueError, match="point:action"):
            FaultInjector("serve.request")

    def test_non_numeric_argument_rejected(self):
        with pytest.raises(ValueError, match="number"):
            FaultInjector("serve.request:slow:fast")

    def test_empty_spec_arms_nothing(self):
        assert not FaultInjector(None)
        assert not FaultInjector("")

    def test_accept_error_is_transient(self):
        injector = FaultInjector("serve.accept:error:2")
        for _ in range(2):
            with pytest.raises(OSError, match="injected"):
                injector.fire("serve.accept")
        injector.fire("serve.accept")  # budget exhausted: no-op

    def test_truncate_is_one_shot(self, tmp_path):
        victim = tmp_path / "store.npz"
        victim.write_bytes(b"x" * 100)
        injector = FaultInjector("store.load:truncate")
        injector.fire("store.load", path=victim)
        assert victim.stat().st_size == 50
        injector.fire("store.load", path=victim)
        assert victim.stat().st_size == 50  # second fire is a no-op


def count_member_reads(monkeypatch) -> Counter:
    """Count every decompression of a container member, by key."""
    reads: Counter = Counter()
    original = np.lib.npyio.NpzFile.__getitem__

    def counting(self, key):
        reads[key] += 1
        return original(self, key)

    monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", counting)
    return reads


def with_recorded_digest(source, dest, key: str, digest: str = "0" * 64):
    """Copy *source* to *dest* with *digest* recorded for array *key*."""

    def mutate(name, payload):
        if name != "manifest.npy":
            return payload
        header_end = payload.index(b"\n") + 1
        manifest = json.loads(bytes(payload[header_end:]))
        manifest["integrity"]["arrays"][key] = digest
        body = json.dumps(manifest, sort_keys=True).encode("utf-8")
        buffer = io.BytesIO()
        np.save(buffer, np.frombuffer(body, dtype=np.uint8))
        return buffer.getvalue()

    rezip(source, dest, mutate)


class TestOneDecodePerMember:
    """``verify="full"`` hands its decoded arrays to the section loaders."""

    def test_full_verify_reads_every_member_once(self, store_path, monkeypatch):
        expected = {key: 1 for key in listed_arrays(store_path)}
        expected["manifest"] = 1
        reads = count_member_reads(monkeypatch)
        run = load_run(store_path, verify="full")
        assert dict(reads) == expected
        assert run.database is not None and run.lattice is not None

    def test_full_verify_of_a_lean_load_still_reads_every_member_once(
        self, store_path, monkeypatch
    ):
        expected = {key: 1 for key in listed_arrays(store_path)}
        expected["manifest"] = 1
        reads = count_member_reads(monkeypatch)
        load_run(
            store_path,
            sections=SERVED_SECTIONS,
            retain_containment=False,
            verify="full",
        )
        assert dict(reads) == expected

    def test_lean_load_decodes_only_its_sections(self, store_path, monkeypatch):
        reads = count_member_reads(monkeypatch)
        run = load_run(
            store_path,
            sections=SERVED_SECTIONS,
            retain_containment=False,
            verify="manifest",
        )
        assert run.database is None and run.generators is None
        assert set(reads.values()) == {1}
        assert not {key for key in reads if key.startswith("context__")}
        assert not {key for key in reads if key.startswith("generators__")}
        assert "order__words" not in reads
        assert {key for key in reads if key.startswith("rules__")}


class TestLeanReloadStillVerifiesTheContext:
    """The daemon never decodes the context, but ``full`` still checks it."""

    def test_tampered_context_digest_is_refused(self, store_path, tmp_path):
        app = ServeApp(store_path, watch=False)
        assert app.loaded.derivation is not None
        tampered = tmp_path / "tampered.npz"
        with_recorded_digest(store_path, tampered, "context__item_ids")
        store_path.write_bytes(tampered.read_bytes())
        app.request_reload()
        status, health = app.handle("GET", "/healthz")
        assert status == 200 and health["generation"] == 1
        status, metrics = app.handle("GET", "/metrics")
        assert metrics["integrity_failures"] == 1
        assert metrics["reloads"] == 0
        assert "context__item_ids" in metrics["last_reload_error"]

    def test_flipped_context_payload_is_refused(self, store_path, tmp_path):
        app = ServeApp(store_path, watch=False)
        flipped = tmp_path / "flipped.npz"

        def mutate(name, payload):
            if name != "context__item_ids.npy":
                return payload
            mutated = bytearray(payload)
            mutated[-1] ^= 0x01
            return bytes(mutated)

        rezip(store_path, flipped, mutate)
        store_path.write_bytes(flipped.read_bytes())
        app.request_reload()
        status, metrics = app.handle("GET", "/metrics")
        assert metrics["integrity_failures"] == 1
        assert metrics["generation"] == 1
        assert "context__item_ids" in metrics["last_reload_error"]
