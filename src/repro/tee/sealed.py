"""Sealed storage: provisioning secrets to an enclave at rest.

SGX sealing encrypts data with a key derived from the enclave's measurement
(MRENCLAVE) so only the same enclave code can unseal it. We model that
contract — *binding to an enclave identity plus tamper detection* — with a
keystream cipher and MAC built from SHA-256.

.. warning::
   This is a **simulation of the sealing interface**, not production
   cryptography. The point is that the reproduction's deployment pipeline
   exercises the same steps (seal at build time → ship blob → unseal inside
   the enclave, failing on identity mismatch or tampering), not that the
   cipher resists a real adversary.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import pickle
from dataclasses import dataclass

from ..errors import SealingError

_MAC_BYTES = 32
_BLOCK_BYTES = 32  # SHA-256 digest size


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """SHA-256 counter-mode keystream.

    Block ``i`` is ``SHA-256(key + nonce + i as 8 little-endian bytes)``;
    the stream is the first ``length`` bytes of blocks ``0 .. ceil(length/32)-1``.
    """
    prefix = key + nonce
    num_blocks = -(-length // _BLOCK_BYTES)
    return b"".join(
        hashlib.sha256(prefix + counter.to_bytes(8, "little")).digest()
        for counter in range(num_blocks)
    )[:length]


def _xor(data: bytes, stream: bytes) -> bytes:
    """XOR two equal-length byte strings as one big-integer operation."""
    value = int.from_bytes(data, "little") ^ int.from_bytes(stream, "little")
    return value.to_bytes(len(data), "little")


def derive_seal_key(measurement: str, device_secret: bytes = b"repro-device-fuse") -> bytes:
    """Derive the sealing key from enclave identity + device secret.

    Mirrors SGX's EGETKEY: the key depends on both the device's fused
    secret and the enclave measurement, so blobs move neither across
    devices nor across enclave versions.
    """
    return hashlib.sha256(device_secret + measurement.encode()).digest()


@dataclass(frozen=True)
class SealedBlob:
    """An encrypted, integrity-protected payload bound to one enclave."""

    measurement: str  # MRENCLAVE-like identity the blob is sealed to
    nonce: bytes
    ciphertext: bytes
    mac: bytes

    @property
    def num_bytes(self) -> int:
        return len(self.ciphertext) + len(self.nonce) + len(self.mac)


def seal(payload: object, measurement: str, device_secret: bytes = b"repro-device-fuse") -> SealedBlob:
    """Serialise and seal ``payload`` to the enclave named by ``measurement``."""
    raw = pickle.dumps(payload)
    key = derive_seal_key(measurement, device_secret)
    nonce = hashlib.sha256(raw + measurement.encode()).digest()[:16]
    stream = _keystream(key, nonce, len(raw))
    ciphertext = _xor(raw, stream)
    mac = hmac.new(key, nonce + ciphertext, hashlib.sha256).digest()
    return SealedBlob(measurement, nonce, ciphertext, mac)


def unseal(blob: SealedBlob, measurement: str, device_secret: bytes = b"repro-device-fuse") -> object:
    """Unseal a blob; fails unless identity matches and the MAC verifies."""
    if blob.measurement != measurement:
        raise SealingError(
            f"blob sealed for enclave {blob.measurement!r}, "
            f"requested by {measurement!r}"
        )
    key = derive_seal_key(measurement, device_secret)
    expected = hmac.new(key, blob.nonce + blob.ciphertext, hashlib.sha256).digest()
    if not hmac.compare_digest(expected, blob.mac):
        raise SealingError("sealed blob failed integrity verification")
    stream = _keystream(key, blob.nonce, len(blob.ciphertext))
    raw = _xor(blob.ciphertext, stream)
    return pickle.loads(raw)


def measure_code(description: dict) -> str:
    """Produce an MRENCLAVE-like measurement from a code/config description.

    Deterministic over the JSON-serialised description, so two enclaves
    with identical rectifier architecture + weights hash share an identity.
    """
    canonical = json.dumps(description, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()
