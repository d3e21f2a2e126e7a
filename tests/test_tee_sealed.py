"""Sealed storage + attestation tests: identity binding, tamper detection."""

from __future__ import annotations

import hashlib
import hmac
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AttestationError, SealingError
from repro.tee import (
    SealedBlob,
    derive_seal_key,
    generate_quote,
    measure_code,
    seal,
    unseal,
    verify_quote,
)
from repro.tee.sealed import _keystream


class TestMeasurement:
    def test_deterministic(self):
        desc = {"scheme": "parallel", "dims": [16, 8]}
        assert measure_code(desc) == measure_code(desc)

    def test_order_independent(self):
        assert measure_code({"a": 1, "b": 2}) == measure_code({"b": 2, "a": 1})

    def test_differs_by_content(self):
        assert measure_code({"a": 1}) != measure_code({"a": 2})


class TestSealUnseal:
    def test_roundtrip(self):
        payload = {"weights": np.arange(10).tolist(), "arch": "parallel"}
        blob = seal(payload, "enclave-x")
        assert unseal(blob, "enclave-x") == payload

    def test_roundtrip_numpy(self):
        payload = np.random.default_rng(0).random((5, 3))
        blob = seal(payload, "m")
        np.testing.assert_array_equal(unseal(blob, "m"), payload)

    def test_identity_mismatch_rejected(self):
        blob = seal("secret", "enclave-a")
        with pytest.raises(SealingError):
            unseal(blob, "enclave-b")

    def test_tampered_ciphertext_rejected(self):
        blob = seal("secret", "m")
        flipped = bytes([blob.ciphertext[0] ^ 0xFF]) + blob.ciphertext[1:]
        tampered = SealedBlob(blob.measurement, blob.nonce, flipped, blob.mac)
        with pytest.raises(SealingError):
            unseal(tampered, "m")

    def test_tampered_mac_rejected(self):
        blob = seal("secret", "m")
        bad_mac = bytes([blob.mac[0] ^ 0x01]) + blob.mac[1:]
        tampered = SealedBlob(blob.measurement, blob.nonce, blob.ciphertext, bad_mac)
        with pytest.raises(SealingError):
            unseal(tampered, "m")

    def test_device_secret_binds(self):
        blob = seal("secret", "m", device_secret=b"device-1")
        with pytest.raises(SealingError):
            unseal(blob, "m", device_secret=b"device-2")

    def test_ciphertext_hides_plaintext(self):
        blob = seal("A" * 100, "m")
        assert b"AAAA" not in blob.ciphertext

    def test_blob_size(self):
        blob = seal("x", "m")
        assert blob.num_bytes == len(blob.ciphertext) + len(blob.nonce) + len(blob.mac)

    def test_key_derivation_depends_on_measurement(self):
        assert derive_seal_key("a") != derive_seal_key("b")


# ----------------------------------------------------------------------
# Known answers and a slow reference oracle for the sealing cipher
# ----------------------------------------------------------------------
def _reference_keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """The original block-by-block keystream, kept verbatim as an oracle."""
    blocks = []
    counter = 0
    while sum(len(b) for b in blocks) < length:
        blocks.append(hashlib.sha256(key + nonce + counter.to_bytes(8, "little")).digest())
        counter += 1
    return b"".join(blocks)[:length]


def _reference_seal(payload: object, measurement: str) -> SealedBlob:
    """The original ``seal``: same nonce/MAC, byte-by-byte XOR."""
    raw = pickle.dumps(payload)
    key = derive_seal_key(measurement)
    nonce = hashlib.sha256(raw + measurement.encode()).digest()[:16]
    stream = _reference_keystream(key, nonce, len(raw))
    ciphertext = bytes(a ^ b for a, b in zip(raw, stream))
    mac = hmac.new(key, nonce + ciphertext, hashlib.sha256).digest()
    return SealedBlob(measurement, nonce, ciphertext, mac)


def _kat_payload(length: int) -> bytes:
    return bytes(i % 251 for i in range(length))


_KAT_MEASUREMENT = "kat-enclave"
_KAT_KEY, _KAT_NONCE = bytes(range(32)), bytes(range(16))

#: SHA-256 of ``_keystream(_KAT_KEY, _KAT_NONCE, length)``.
_KEYSTREAM_VECTORS = [
    (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (1, "62c66a7a5dd70c3146618063c344e531e6d4b59e379808443ce962b3abd63c5a"),
    (31, "2cbc5a653cdccca3802ef47be50543d886a86c25100b57bb7c32b3e7beb2a0d7"),
    (32, "d81cb15f20f52324fdafa3e10190f72e450cc149c11ff5af37860f61b3fd634c"),
    (33, "c25b080113d7c3b3a3ae251e03d5532a7f9e151752de0048e668afea81cb48a5"),
    (4096, "c961777b52beb1dea437aacc055e8372cbeee27a25774c5f88db1edf0f431dc4"),
]

#: (payload length, nonce, SHA-256 of ciphertext, mac) for
#: ``seal(_kat_payload(length), _KAT_MEASUREMENT)``.
_SEAL_VECTORS = [
    (0, "1047a3e8a81e8f89d4ea11d94e577ffa",
     "d625461f77215ecf746a9518c45057ecc0c98ee6f5f6ea6c53d45208d286753d",
     "f5d06d0423de6892a346ad18d817fb26a65b95e9fefbcf317be99f0cb24fdfbe"),
    (1, "91edf88038f46962c2d929d10b0b876c",
     "09b024ba6466eb761930dfecd5ba3dbca1e8557c4d347d834c7e5bb85ac1324a",
     "343fe24a6f433a0e5177ba401b87a77ed9e95a0dda558c486a3deb8209c975b0"),
    (31, "b26d803bd84c429ec98e8384cb553dac",
     "ff772837710ac5a12e699c9d1120fd4b079ea983c99aef7c77ca719918511992",
     "ad4965f66e136a12add26e182c6b73676639e3c0f142e945653069834eb77739"),
    (32, "f990f5bf568f8fd439b00c08b3fedc1c",
     "be0beca0445203af49aa5e59e59081c222e55ae90cc013a98ea94fc07f87f867",
     "4a343e1057dd462b15383555395ce0aecd07690b814be8af48b08cac5664fb92"),
    (33, "f006d96c76932483f92879c68957bcac",
     "aeccbe83b0af02fbafdd5c21fb9eb69f3fc6e2969c37366c73c68e2e7acaa3c2",
     "f15fe5aa177fd706f3d2a09cf2a6947b3a6ed1f483518ed3dcd1f13a992a1d6d"),
    (4096, "65a74250105e051a8005eba6d02ad52f",
     "2d10197960de3f804cb8c3cc6f92ed4782ef238aca965ff3077dfd22b0afb2d5",
     "52cb355bd8fb848670f89f8c3358ba1b460fac0728d08f6bceecbb0d8ffb38cb"),
]

#: The same for ``random.Random(2025).randbytes(100_000)``.
_LARGE_SEAL_VECTOR = (
    "54dad3ed17f191bbbab8b56084cb3241",
    "9581ce68870b16bf8a71523700c212db5557728b062c677bbf4c13355ad50c09",
    "15a399b6b2c5ea438bfb73f76bbf3efb08c2c18599e4cac7897a7a25030375e4",
)

# The sealed bytes cover the pickle, so the vectors hold only for the
# protocol they were recorded with (Python 3.8-3.13's default).
_pickle_protocol_4 = pytest.mark.skipif(
    pickle.DEFAULT_PROTOCOL != 4, reason="vectors pin protocol-4 pickles"
)


def _fingerprint(blob: SealedBlob) -> tuple:
    return blob.nonce.hex(), hashlib.sha256(blob.ciphertext).hexdigest(), blob.mac.hex()


class TestSealKnownAnswers:
    """Sealed bytes are a stable format: blobs sealed by any version unseal."""

    @pytest.mark.parametrize("length,digest", _KEYSTREAM_VECTORS)
    def test_keystream_vectors(self, length, digest):
        stream = _keystream(_KAT_KEY, _KAT_NONCE, length)
        assert len(stream) == length
        assert hashlib.sha256(stream).hexdigest() == digest

    @_pickle_protocol_4
    @pytest.mark.parametrize("length,nonce,digest,mac", _SEAL_VECTORS)
    def test_seal_vectors(self, length, nonce, digest, mac):
        payload = _kat_payload(length)
        blob = seal(payload, _KAT_MEASUREMENT)
        assert _fingerprint(blob) == (nonce, digest, mac)
        assert unseal(blob, _KAT_MEASUREMENT) == payload

    @_pickle_protocol_4
    def test_large_seal_vector(self):
        payload = random.Random(2025).randbytes(100_000)
        blob = seal(payload, _KAT_MEASUREMENT)
        assert _fingerprint(blob) == _LARGE_SEAL_VECTOR
        assert unseal(blob, _KAT_MEASUREMENT) == payload


_payloads = st.one_of(
    st.binary(max_size=3000),
    st.text(max_size=300),
    st.lists(st.integers(), max_size=50),
    st.dictionaries(st.text(max_size=8), st.floats(allow_nan=False), max_size=10),
)


class TestSealMatchesReference:
    """The linear-time cipher is byte-identical to the original one."""

    @settings(max_examples=60, deadline=None)
    @given(length=st.integers(0, 5000), key=st.binary(min_size=32, max_size=32),
           nonce=st.binary(min_size=16, max_size=16))
    def test_keystream_matches_reference(self, length, key, nonce):
        assert _keystream(key, nonce, length) == _reference_keystream(key, nonce, length)

    @settings(max_examples=60, deadline=None)
    @given(payload=_payloads, measurement=st.text(min_size=1, max_size=40))
    def test_seal_matches_reference(self, payload, measurement):
        assert seal(payload, measurement) == _reference_seal(payload, measurement)

    @settings(max_examples=60, deadline=None)
    @given(payload=_payloads, measurement=st.text(min_size=1, max_size=40))
    def test_unseal_reads_reference_blobs(self, payload, measurement):
        assert unseal(_reference_seal(payload, measurement), measurement) == payload


class TestSnapshotVersionSkew:
    """Recovery snapshots under version skew (the supervisor's failure mode).

    A sealed snapshot is bound to the enclave measurement that wrote it; a
    rebuilt enclave whose code (scheme, layer shapes) changed derives a
    different seal key and must fail *closed* — the supervisor then parks
    in degraded mode after a bounded number of attempts rather than
    crash-looping (covered end-to-end in ``test_resilience.py``).
    """

    def _snapshot_payload(self):
        return {
            "adjacency": None,
            "weights": {"w0": np.ones((4, 2)).tolist()},
            "plan_keys": [((3,), 2)],
        }

    def test_snapshot_roundtrip_same_measurement(self):
        payload = self._snapshot_payload()
        measurement = measure_code({"scheme": "series", "dims": [16, 8]})
        blob = seal(payload, measurement)
        restored = unseal(blob, measurement)
        assert restored["plan_keys"] == payload["plan_keys"]
        assert restored["weights"] == payload["weights"]

    def test_skewed_measurement_fails_closed(self):
        """A code change (new layer width) must make old snapshots opaque."""
        old = measure_code({"scheme": "series", "dims": [16, 8]})
        new = measure_code({"scheme": "series", "dims": [32, 8]})
        blob = seal(self._snapshot_payload(), old)
        with pytest.raises(SealingError):
            unseal(blob, new)

    def test_skew_failure_is_deterministic_not_looping(self):
        """Every retry fails identically — restarting cannot help, which is
        why the supervisor treats SealingError as terminal."""
        blob = seal(self._snapshot_payload(), "build-1")
        for _ in range(3):
            with pytest.raises(SealingError):
                unseal(blob, "build-2")

    def test_enclave_restore_skew_degrades_supervisor(self, trained_vault):
        """End-to-end: a supervisor holding a skewed snapshot degrades after
        its bounded attempt instead of burning the restart budget."""
        from repro.deploy import EnclaveSupervisor, SecureInferenceSession
        from repro.errors import RecoveryFailed

        run = trained_vault
        session = SecureInferenceSession(
            backbone=run.backbone,
            rectifier=run.rectifiers["series"],
            substitute_adjacency=run.substitute,
            private_adjacency=run.graph.adjacency,
        )
        supervisor = EnclaveSupervisor(session)
        supervisor._snapshot = seal(self._snapshot_payload(), "other-build")
        session.enclave.kill()
        with pytest.raises(RecoveryFailed):
            supervisor.recover()
        assert supervisor.degraded
        assert supervisor.restarts_total == 0


class TestAttestation:
    def test_valid_quote_verifies(self):
        quote = generate_quote("enclave-m", "challenge-1")
        verify_quote(quote, "enclave-m", "challenge-1")  # no raise

    def test_wrong_measurement_rejected(self):
        quote = generate_quote("enclave-m")
        with pytest.raises(AttestationError):
            verify_quote(quote, "other-enclave")

    def test_wrong_challenge_rejected(self):
        quote = generate_quote("enclave-m", "challenge-1")
        with pytest.raises(AttestationError):
            verify_quote(quote, "enclave-m", "challenge-2")

    def test_forged_signature_rejected(self):
        quote = generate_quote("enclave-m")
        forged = type(quote)(quote.measurement, quote.user_data, b"\x00" * 32)
        with pytest.raises(AttestationError):
            verify_quote(forged, "enclave-m")

    def test_replayed_quote_for_other_measurement_rejected(self):
        """A quote for enclave A cannot attest enclave B."""
        quote_a = generate_quote("A")
        forged = type(quote_a)("B", quote_a.user_data, quote_a.signature)
        with pytest.raises(AttestationError):
            verify_quote(forged, "B")
