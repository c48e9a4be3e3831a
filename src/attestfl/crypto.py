"""Primitives for signing, key agreement, and keyed transport.

Everything here is deterministic given its seed arguments, which keeps whole
simulation runs reproducible down to the byte.  The constructions are
simulation-grade: textbook RSA with fixed padding, classic finite-field
Diffie-Hellman, and encrypt-then-MAC with a SHAKE-256 keystream and an
HMAC-SHA256 tag.  None of this should guard real traffic; it exists so the
protocol layer has honest cryptographic behaviour (forgeries fail, tampering
is detected) without nondeterministic key material.

RSA keys have three primes, as RFC 8017 §3.2 allows for multi-prime keys;
three is within the usual limit for 1024- and 2048-bit moduli, though
FIPS 186-5 approves only two-prime keys.  Signing uses the CRT form over the
three primes and checks every signature against the public key before
releasing it.  Key primes pass trial division and then Miller-Rabin: 12
computed rounds at the 341- and 342-bit prime sizes of a 1024-bit key and 6
at the 682- and 683-bit sizes of a 2048-bit key, the fewest for which the
Damgard-Landrock-Pomerance bound for random candidates is at most 2^-100.
Every candidate still draws all 40 bases, only so that the DRBG stream and
every key stay as they were when all 40 rounds were computed
(`_is_probable_prime` gives the bound and the figures).

Key agreement is Diffie-Hellman in one group, RFC 3526 group 14 (the
2048-bit MODP prime with generator 2).  Private exponents are 320 bits long
(RFC 3526 section 8's size for that group), not as long as the modulus, so
every exponentiation is one builtin `pow` with a short exponent.

Byte conventions are big-endian throughout.  `canonical_encode` defines the
injective byte layout that both digests and signatures commit to.  `prefixed`
and `Reader` are the only framing code: every encoder writes a variable-length
field with `prefixed`, and every decoder here and in `attestation` and
`protocol` reads through a `Reader`, so a field that runs past the end of its
buffer raises ValueError in one place.
"""

from __future__ import annotations

import hashlib
import hmac
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "CryptoError",
    "IntegrityError",
    "UnsupportedSchemeError",
    "RSA_SCHEME",
    "sha256",
    "prefixed",
    "Reader",
    "canonical_encode",
    "canonical_decode",
    "encode_param_values",
    "read_param_values",
    "RsaPublicKey",
    "RsaPrivateKey",
    "SignatureKeyPair",
    "keygen_signature",
    "sign",
    "verify",
    "DH_PRIME",
    "DH_GENERATOR",
    "dh_keygen",
    "dh_shared",
    "kdf",
    "derive_nonce",
    "SEED_LIMIT",
    "derive_seed",
    "CipherEnvelope",
    "encrypt",
    "decrypt",
]


class CryptoError(Exception):
    """Base class for failures in this module."""


class IntegrityError(CryptoError):
    """Authentication tag did not match; ciphertext rejected before decryption."""


class UnsupportedSchemeError(CryptoError, ValueError):
    """A serialized key names a signature scheme other than RSA_SCHEME."""


DIGEST_LEN = 32
NONCE_LEN = 16
KEY_LEN = 32

RSA_SCHEME = "rsa-pkcs1v15-sha256"


# --------------------------------------------------------------------------- #
# hashing and deterministic byte streams
# --------------------------------------------------------------------------- #


def sha256(data: bytes) -> bytes:
    """SHA-256 digest of `data` (32 bytes)."""
    return hashlib.sha256(data).digest()


def _drbg_blocks(seed_material: bytes) -> Iterable[bytes]:
    """Infinite deterministic byte stream: SHA-256 over seed material and a counter."""
    counter = 0
    while True:
        yield sha256(seed_material + counter.to_bytes(8, "big"))
        counter += 1


class _Drbg:
    """Minimal deterministic random byte generator used for key generation.

    Not a certified DRBG; it only needs to be deterministic, uniform enough
    for prime search, and independent of interpreter RNG state.
    """

    def __init__(self, label: bytes, seed: int):
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self._blocks = _drbg_blocks(label + seed.to_bytes(16, "big"))
        self._buf = b""

    def take(self, n: int) -> bytes:
        while len(self._buf) < n:
            self._buf += next(self._blocks)
        out, self._buf = self._buf[:n], self._buf[n:]
        return out

    def take_int(self, bits: int) -> int:
        nbytes = (bits + 7) // 8
        value = int.from_bytes(self.take(nbytes), "big")
        return value >> (nbytes * 8 - bits)


# --------------------------------------------------------------------------- #
# framing
# --------------------------------------------------------------------------- #


def prefixed(data: bytes, width: int) -> bytes:
    """`data` after its length as a big-endian integer of `width` bytes.

    Raises ValueError when the length does not fit in `width` bytes.
    """
    if len(data) >= 1 << (8 * width):
        raise ValueError(f"field of {len(data)} bytes exceeds a {width}-byte length prefix")
    return len(data).to_bytes(width, "big") + data


class Reader:
    """Bounds-checked cursor over one encoded blob.

    Every read past the end raises ValueError, and `close` rejects trailing
    bytes, so a decoder built on it is total over its input.
    """

    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.blob):
            raise ValueError(f"truncated: {n} bytes wanted at offset {self.pos} of {len(self.blob)}")
        piece = self.blob[self.pos : end]
        self.pos = end
        return piece

    def uint(self, width: int) -> int:
        return int.from_bytes(self.take(width), "big")

    def prefixed(self, width: int) -> bytes:
        """Read a field written by the module-level `prefixed`."""
        return self.take(self.uint(width))

    def close(self) -> None:
        if self.pos != len(self.blob):
            raise ValueError(f"{len(self.blob) - self.pos} trailing bytes")


# --------------------------------------------------------------------------- #
# canonical message encoding
# --------------------------------------------------------------------------- #

_ENC_VERSION = b"\x01"


def encode_param_values(values: Sequence[float] | np.ndarray) -> bytes:
    """Length-prefixed parameter block: count as u64, then each value as f64."""
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    if arr.size >= 1 << 64:
        raise ValueError("too many parameters to encode")
    return arr.size.to_bytes(8, "big") + arr.astype(">f8").tobytes()


def read_param_values(reader: Reader) -> np.ndarray:
    """Read one block written by `encode_param_values` as a float64 array."""
    return np.frombuffer(reader.take(8 * reader.uint(8)), dtype=">f8").astype(np.float64)


def canonical_encode(values: Sequence[float] | np.ndarray, round_no: int, client_id: str, data_size: int) -> bytes:
    """Injective byte encoding of an update and its context.

    Layout, all big-endian:
      version byte 0x01
      round as u32
      client id as u16 length prefix plus UTF-8 bytes
      data size as u64
      parameter count as u64, then each parameter as IEEE-754 f64
    """
    if not 0 <= round_no < 1 << 32:
        raise ValueError(f"round {round_no} out of u32 range")
    if not 0 <= data_size < 1 << 64:
        raise ValueError(f"data size {data_size} out of u64 range")
    return (
        _ENC_VERSION
        + round_no.to_bytes(4, "big")
        + prefixed(client_id.encode("utf-8"), 2)
        + data_size.to_bytes(8, "big")
        + encode_param_values(values)
    )


def canonical_decode(blob: bytes) -> tuple[np.ndarray, int, str, int]:
    """Strict inverse of `canonical_encode`.

    Returns (values, round, client_id, data_size).  Raises ValueError on any
    structural problem, including trailing bytes.
    """
    reader = Reader(blob)
    if reader.take(1) != _ENC_VERSION:
        raise ValueError("bad encoding version")
    round_no = reader.uint(4)
    client_id = reader.prefixed(2).decode("utf-8")
    data_size = reader.uint(8)
    values = read_param_values(reader)
    reader.close()
    return values, round_no, client_id, data_size


# --------------------------------------------------------------------------- #
# RSA signatures (deterministic keygen, PKCS#1 v1.5 style padding)
# --------------------------------------------------------------------------- #

_E = 65537

# DER DigestInfo prefix for SHA-256, fixed so padding is deterministic.
_SHA256_PREFIX = bytes.fromhex("3031300d060960864801650304020105000420")

_SMALL_PRIMES = [
    p
    for p in range(2, 2000)
    if all(p % q for q in range(2, int(math.isqrt(p)) + 1))
]

# Miller-Rabin bases drawn per candidate, one per round, computed or not.
_MR_BASES = 40

# Miller-Rabin rounds computed per candidate size in bits, for the four prime
# sizes keygen draws; `_is_probable_prime` gives the bound behind each count.
_MR_ROUNDS = {341: 12, 342: 12, 682: 6, 683: 6}


def _is_probable_prime(n: int, rng: _Drbg) -> bool:
    """Trial division by the primes below 2,000, then Miller-Rabin.

    A candidate of k bits gets t = _MR_ROUNDS[k] computed rounds, the least t
    for which the Damgard-Landrock-Pomerance bound (Math. Comp. 61, 1993)

        p_{k,t} < k^(3/2) * 2^t * t^(-1/2) * 4^(2 - sqrt(t*k)),
        valid for k >= 21 and 3 <= t <= k/9,

    is at most 2^-100: 12 rounds at 341 and 342 bits (2^-101.1, 2^-101.3) and
    6 at 682 and 683 bits (2^-105.1, 2^-105.2).  p_{k,t} bounds the chance
    that drawing random odd k-bit candidates until one passes t rounds, as
    _gen_prime does, yields a composite; FIPS 186 sizes its Miller-Rabin round
    tables by the same analysis.  The bound usually quoted for 40 rounds,
    4^-40 = 2^-80, holds for any n; these bounds are at least 21 bits tighter.
    Other sizes compute all _MR_BASES rounds.

    All _MR_BASES bases are drawn either way.  Those past the t-th are drawn
    only to keep the DRBG stream, and so every key, as it was when all forty
    rounds were computed; drawing only t would move every key.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    computed = _MR_ROUNDS.get(n.bit_length(), _MR_BASES)
    for i in range(_MR_BASES):
        a = 2 + rng.take_int(n.bit_length() + 16) % (n - 3)
        if i >= computed:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _gen_prime(bits: int, rng: _Drbg) -> int:
    while True:
        cand = rng.take_int(bits)
        cand |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if math.gcd(cand - 1, _E) != 1:
            continue
        if _is_probable_prime(cand, rng):
            return cand


@dataclass(frozen=True)
class RsaPublicKey:
    n: int
    e: int

    def to_bytes(self) -> bytes:
        """Serialize as scheme id and big-endian (modulus, exponent) octets."""
        n_oct = self.n.to_bytes((self.n.bit_length() + 7) // 8, "big")
        e_oct = self.e.to_bytes((self.e.bit_length() + 7) // 8, "big")
        return prefixed(RSA_SCHEME.encode("utf-8"), 2) + prefixed(n_oct, 4) + prefixed(e_oct, 4)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "RsaPublicKey":
        reader = Reader(blob)
        scheme = reader.prefixed(2).decode("utf-8")
        n_oct = reader.prefixed(4)
        e_oct = reader.prefixed(4)
        reader.close()
        if n_oct[:1] == b"\x00" or e_oct[:1] == b"\x00":
            raise ValueError("leading zero octet in public key integer")
        n, e = int.from_bytes(n_oct, "big"), int.from_bytes(e_oct, "big")
        if scheme != RSA_SCHEME:
            raise UnsupportedSchemeError(f"unknown scheme {scheme!r}")
        return cls(n=n, e=e)


@dataclass(frozen=True)
class RsaPrivateKey:
    """Multi-prime CRT form of the private key (RFC 8017 §3.2), three primes.

    n = r1 * r2 * r3 and e is the public exponent, kept so `sign` can check
    its result.  `exponents` holds di = e^-1 mod (ri - 1).  `coefficients`
    holds RFC 8017's qInv = r2^-1 mod r1 and t3 = (r1 * r2)^-1 mod r3.
    """

    n: int
    e: int
    primes: tuple[int, int, int]
    exponents: tuple[int, int, int]
    coefficients: tuple[int, int]


@dataclass(frozen=True)
class SignatureKeyPair:
    private: RsaPrivateKey
    public: RsaPublicKey


def keygen_signature(key_bits: int = 2048, seed: int = 0) -> SignatureKeyPair:
    """Generate a deterministic RSA_SCHEME keypair from `seed`.

    key_bits must be 1024 (test-sized) or 2048 (default).  The same size
    and seed always produce the same keypair.  The modulus is the product of
    three distinct primes of ceil(k/3) or floor(k/3) bits, each with its top
    two bits set; all three are drawn again until the product has exactly
    `key_bits` bits.
    """
    if key_bits not in (1024, 2048):
        raise ValueError("key_bits must be 1024 or 2048")
    rng = _Drbg(b"rsa-keygen:" + key_bits.to_bytes(4, "big"), seed)
    sizes = [key_bits // 3 + (i < key_bits % 3) for i in range(3)]
    while True:
        primes = tuple(_gen_prime(bits, rng) for bits in sizes)
        n = math.prod(primes)
        if len(set(primes)) == 3 and n.bit_length() == key_bits:
            break
    # e^-1 mod (r-1) equals d mod (r-1) for d = e^-1 mod lcm(r1-1, r2-1, r3-1)
    r1, r2, r3 = primes
    private = RsaPrivateKey(
        n=n,
        e=_E,
        primes=primes,
        exponents=tuple(pow(_E, -1, r - 1) for r in primes),
        coefficients=(pow(r2, -1, r1), pow(r1 * r2, -1, r3)),
    )
    return SignatureKeyPair(private=private, public=RsaPublicKey(n=n, e=_E))


def _emsa_encode(digest: bytes, length: int) -> bytes:
    # 0x00 0x01 <0xff padding> 0x00 <DigestInfo> <digest>
    payload = _SHA256_PREFIX + digest
    pad_len = length - len(payload) - 3
    if pad_len < 8:
        raise CryptoError("modulus too small for padding")
    return b"\x00\x01" + b"\xff" * pad_len + b"\x00" + payload


def sign(digest: bytes, private: RsaPrivateKey) -> bytes:
    """Deterministic signature over a 32-byte digest.

    RSASP1 in multi-prime CRT form (RFC 8017 §5.1.2 step 2.b): three
    exponentiations modulo the primes, joined by Garner recombination, equal
    to em^d mod n.  The result is verified against (n, e) before it is
    returned, so a fault in one exponentiation raises CryptoError instead of
    releasing a signature that would expose a prime factor of n.
    """
    if len(digest) != DIGEST_LEN:
        raise ValueError("digest must be 32 bytes")
    k = (private.n.bit_length() + 7) // 8
    em = int.from_bytes(_emsa_encode(digest, k), "big")
    r1, r2, r3 = private.primes
    s1, s2, s3 = (pow(em, d, r) for d, r in zip(private.exponents, private.primes))
    q_inv, t3 = private.coefficients
    s = s2 + r2 * ((s1 - s2) * q_inv % r1)
    s += r1 * r2 * ((s3 - s) * t3 % r3)
    signature = s.to_bytes(k, "big")
    if not verify(digest, signature, RsaPublicKey(n=private.n, e=private.e)):
        raise CryptoError("signature failed its check against the public key")
    return signature


def verify(digest: bytes, signature: bytes, public: RsaPublicKey) -> bool:
    """True iff `signature` is a valid signature over `digest` for `public`.

    Malformed signatures return False rather than raising.
    """
    if len(digest) != DIGEST_LEN:
        raise ValueError("digest must be 32 bytes")
    k = (public.n.bit_length() + 7) // 8
    if len(signature) != k:
        return False
    s = int.from_bytes(signature, "big")
    if s >= public.n:
        return False
    em = pow(s, public.e, public.n).to_bytes(k, "big")
    try:
        return em == _emsa_encode(digest, k)
    except CryptoError:
        return False


# --------------------------------------------------------------------------- #
# Diffie-Hellman key agreement
# --------------------------------------------------------------------------- #

# RFC 3526 group 14: the 2048-bit MODP safe prime p = 2q + 1, and 2, which
# generates the subgroup of prime order q.
DH_PRIME = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)
DH_GENERATOR = 2

_DH_EXPONENT_BITS = 320  # private exponent size, RFC 3526 section 8


def dh_keygen(seed: int) -> tuple[int, int]:
    """Deterministic (private, public) pair for `seed`.

    The private exponent is short: 384 drawn bits reduced into
    [2, 2 + 2^320).  RFC 3526 section 8 gives 320 bits for the group's
    higher strength estimate (NIST SP 800-56A Rev. 3 asks for at least 224),
    and `pow` with it costs about a sixth of a full-length one.  Every such
    exponent is far below the generator's order q, so the public value is
    never 0, 1 or p-1 and always lies in the [2, p-2] that dh_shared accepts.
    """
    private = 2 + _Drbg(b"dh-keygen", seed).take_int(_DH_EXPONENT_BITS + 64) % (1 << _DH_EXPONENT_BITS)
    return private, pow(DH_GENERATOR, private, DH_PRIME)


def dh_shared(private: int, peer_public: int) -> int:
    """Shared secret from our private exponent and the peer's public value.

    The peer value must lie in [2, p-2]; 0, 1, and p-1 are rejected because
    they force degenerate secrets.  Both ranges are checked before any
    exponentiation.
    """
    if not 2 <= peer_public <= DH_PRIME - 2:
        raise ValueError("peer public value out of range")
    if not 1 <= private <= DH_PRIME - 2:
        raise ValueError("private exponent out of range")
    return pow(peer_public, private, DH_PRIME)


def kdf(secret: int) -> bytes:
    """Derive a 32-byte symmetric key: hash of the minimal big-endian secret."""
    if secret < 0:
        raise ValueError("secret must be non-negative")
    width = max(1, (secret.bit_length() + 7) // 8)
    return sha256(secret.to_bytes(width, "big"))


def derive_nonce(client_id: str, round_no: int) -> bytes:
    """Per-sender, per-round nonce: first 16 bytes of hash(id, round as u32)."""
    if not 0 <= round_no < 1 << 32:
        raise ValueError(f"round {round_no} out of u32 range")
    return sha256(client_id.encode("utf-8") + round_no.to_bytes(4, "big"))[:NONCE_LEN]


# seeds stay below this so that derive_seed can frame them (16 signed bytes)
SEED_LIMIT = 1 << 127


def derive_seed(*parts: int | str) -> int:
    """Collapse a mixed label/index path into a stable 64-bit RNG seed.

    Parts are length-framed and type-tagged before hashing, so ("ab", 1)
    and ("a", "b1") land on different seeds.
    """
    if not parts:
        raise ValueError("need at least one part")
    hasher = hashlib.sha256(b"seed-derivation/v1")
    for part in parts:
        if isinstance(part, bool) or not isinstance(part, (int, str)):
            raise TypeError(f"seed part must be int or str, got {type(part).__name__}")
        if isinstance(part, int):
            hasher.update(b"i" + part.to_bytes(16, "big", signed=True))
        else:
            raw = part.encode("utf-8")
            hasher.update(b"s" + prefixed(raw, 4))
    return int.from_bytes(hasher.digest()[:8], "big")


# --------------------------------------------------------------------------- #
# authenticated stream cipher (SHAKE-256 keystream, HMAC-SHA256 tag)
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class CipherEnvelope:
    nonce: bytes
    ciphertext: bytes
    tag: bytes

    def __post_init__(self) -> None:
        if len(self.nonce) != NONCE_LEN:
            raise ValueError("nonce must be 16 bytes")
        if len(self.tag) != DIGEST_LEN:
            raise ValueError("tag must be 32 bytes")


def _keystream_xor(key: bytes, nonce: bytes, data: bytes) -> bytes:
    stream = hashlib.shake_256(key + nonce).digest(len(data))
    return (np.frombuffer(data, dtype=np.uint8) ^ np.frombuffer(stream, dtype=np.uint8)).tobytes()


def _tag(key: bytes, nonce: bytes, ciphertext: bytes) -> bytes:
    return hmac.digest(key, nonce + ciphertext, "sha256")


def _check_key(key: bytes) -> None:
    # the nonce length is checked by CipherEnvelope, which both callers build
    if len(key) != KEY_LEN:
        raise ValueError("key must be 32 bytes")


def encrypt(key: bytes, nonce: bytes, plaintext: bytes) -> CipherEnvelope:
    """Encrypt-then-MAC: SHAKE-256 keystream (FIPS 202), HMAC-SHA256 tag (RFC 2104) over nonce and ciphertext."""
    _check_key(key)
    ciphertext = _keystream_xor(key, nonce, plaintext)
    return CipherEnvelope(nonce=nonce, ciphertext=ciphertext, tag=_tag(key, nonce, ciphertext))


def decrypt(key: bytes, envelope: CipherEnvelope) -> bytes:
    """Check the HMAC-SHA256 tag in constant time, then decrypt.  Raises
    IntegrityError before any keystream is made if the tag does not match."""
    _check_key(key)
    if not hmac.compare_digest(_tag(key, envelope.nonce, envelope.ciphertext), envelope.tag):
        raise IntegrityError("authentication tag mismatch")
    return _keystream_xor(key, envelope.nonce, envelope.ciphertext)
