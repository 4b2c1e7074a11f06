"""Cryptographic primitives: the standard signature scheme, the two hash
oracles, the chameleon hash/signature construction, and the Schnorr-style
proof of trapdoor knowledge.

All group arithmetic happens in a prime-order subgroup of Z_p^*, one of
GROUPS.  The hot kernel is modular exponentiation, and every cache here is
a functools.lru_cache holding public values only, so none changes a
result.  Every power of the generator g goes through generator_comb, one
fixed-base comb per group (FixedBaseComb, Lim-Lee; 8 teeth, 2 tables).
A recipient key y gets its comb (6 teeth, 2 tables) from recipient_comb,
which keeps RECIPIENT_COMB_CAPACITY keys; the first chameleon hash toward
a key builds it.  A chameleon hash g^h(m) * y^r is one pass over the
columns of both combs (FixedBaseComb.pow2): at the 2048/256 group, 21
shared squarings and at most 75 multiplications, about a fifth of two
plain pow() calls, so the pure-Python path meets the 5 ms sign/verify
gate.  The recipient itself holds x, so recipient_verify takes CH as
g^{(h(m) + x*r) mod q}, one pass of the generator comb, and builds no comb
for y.  verify_trapdoor checks the ranges and the Fiat-Shamir challenge on
every call, then raises y to c by modexp; _proof_holds caches that last
step for RECIPIENT_COMB_CAPACITY proofs, keyed without the context, so the
insurer's registration, the client's own check and every claim the judge
settles under one contract raise its powers once.  Powers of other bases
use built-in pow().
"""

import functools
import hashlib
from dataclasses import dataclass

from .errors import KeyFormatError, ParameterError
from .rand import DEFAULT, RandomSource


def modexp_backend() -> str:
    return "pure"


def modexp(base: int, exp: int, mod: int) -> int:
    return pow(base, exp, mod)


class FixedBaseComb:
    """Lim-Lee comb (CRYPTO '94) for base^e mod p with 0 <= e < 2^bits.

    The exponent is laid out as `teeth` rows of a = ceil(bits/teeth)
    columns, and the columns are cut into `tables` blocks of b =
    ceil(a/tables).  Table j holds, for every teeth-bit index i, the
    product of base^(2^(k*a + j*b)) over the set bits k of i.  A power then
    costs b-1 squarings and at most a multiplications, against the ~bits
    squarings of a plain pow(); the tables hold tables * 2^teeth elements.
    An index is one byte, so teeth is at most 8.
    """

    def __init__(self, base: int, mod: int, bits: int, teeth: int, tables: int = 1):
        if mod < 2 or bits < 1 or not 1 <= teeth <= 8 or tables < 1:
            raise ParameterError("bad comb dimensions")
        self.base = base
        self.mod = mod
        self.bits = bits
        self.teeth = teeth
        self._a = -(-bits // teeth)
        self._b = -(-self._a // tables)
        tables = -(-self._a // self._b)
        # One set bit in each byte of an a-byte integer.
        self._ones = int.from_bytes(b"\x01" * self._a, "big")
        # spokes[j][k] = base^(2^(k*a + j*b)), by repeated squaring.
        spokes = [[0] * teeth for _ in range(tables)]
        power = base % mod
        for k in range(teeth):
            for col in range(self._a):
                j, rest = divmod(col, self._b)
                if rest == 0:
                    spokes[j][k] = power
                power = power * power % mod
        self._tables = []
        for row in spokes:
            table = [1]
            for spoke in row:
                table += [entry * spoke % mod for entry in table]
            self._tables.append(table)

    def _columns(self, e: int) -> list[list[int]]:
        """For each column c < b, the table entries that a power of e
        multiplies in at c, each table's index computed once."""
        if e < 0 or e >> self.bits:
            raise ParameterError("exponent outside the comb's range")
        a, b = self._a, self._b
        # Byte i of spread is bit i of e (its binary digits are ASCII '0'
        # and '1', and _ones keeps their low bits), so byte c of indices
        # gathers bit c of every row: the index of column c.
        spread = int.from_bytes(format(e, f"0{self.teeth * a}b").encode(), "big")
        indices = 0
        for k in range(self.teeth):
            indices |= ((spread >> (8 * k * a)) & self._ones) << k
        indices = indices.to_bytes(a, "little")
        return [
            [table[i] for table, i in zip(self._tables, indices[col::b]) if i]
            for col in range(b)
        ]

    def pow(self, e: int) -> int:
        return _comb_product(self.mod, self._columns(e))

    def pow2(self, e: int, other: "FixedBaseComb", f: int) -> int:
        """base^e * other.base^f mod p in one pass (Moeller, SAC 2001): each
        column squares once for both combs, and a comb with fewer columns
        joins when the pass reaches them."""
        if other.mod != self.mod:
            raise ParameterError("combs over different moduli")
        mine, theirs = self._columns(e), other._columns(f)
        if len(mine) < len(theirs):
            mine, theirs = theirs, mine
        for col, entries in enumerate(theirs):
            mine[col] += entries
        return _comb_product(self.mod, mine)


def _comb_product(mod: int, columns: list[list[int]]) -> int:
    """The product, mod mod, of every entry of columns[c] squared c times."""
    acc = 1
    for entries in reversed(columns):
        acc = acc * acc % mod
        for entry in entries:
            acc = acc * entry % mod
    return acc


# ---------------------------------------------------------------------------
# Hash oracles
# ---------------------------------------------------------------------------
# One-byte domain-separation prefixes keep the two oracles disjoint: 0x68
# for the 32-byte collision-resistant hash, 0x48 for the 28-byte oracle that
# feeds TLS client randomness.

_H_PREFIX = b"\x68"
_H28_PREFIX = b"\x48"

H28_LEN = 28


def hash_h(message: bytes) -> bytes:
    """Collision-resistant 32-byte hash."""
    return hashlib.sha256(_H_PREFIX + message).digest()


def hash_h28(message: bytes) -> bytes:
    """28-byte random-oracle hash, sized for TLS random_bytes."""
    return hashlib.sha256(_H28_PREFIX + message).digest()[:H28_LEN]


def prf(key: bytes, message: bytes) -> bytes:
    """Keyed PRF built from hash_h: PRF(k, m) = h(k || m)."""
    return hash_h(key + message)


def hash_h_each(prefix: bytes, suffixes) -> list[bytes]:
    """[hash_h(prefix + s) for s in suffixes], hashing the shared prefix once."""
    state = hashlib.sha256(_H_PREFIX + prefix)
    out = []
    for suffix in suffixes:
        h = state.copy()
        h.update(suffix)
        out.append(h.digest())
    return out


# ---------------------------------------------------------------------------
# Standard signature scheme
# ---------------------------------------------------------------------------

SCHEME_ED25519 = 1
SCHEME_RSA_SHA256 = 2

SCHEME_NAMES = {SCHEME_ED25519: "ed25519", SCHEME_RSA_SHA256: "rsa-pkcs1-sha256"}


@dataclass(frozen=True)
class PublicKey:
    scheme_id: int
    data: bytes


@dataclass(frozen=True)
class SigKeyPair:
    public: PublicKey
    secret: bytes

    @property
    def scheme_id(self) -> int:
        return self.public.scheme_id


def private_key(scheme_id: int, secret: bytes):
    """The cryptography private-key object that secret encodes under scheme_id."""
    if scheme_id == SCHEME_ED25519:
        from cryptography.hazmat.primitives.asymmetric import ed25519

        if len(secret) != 32:
            raise KeyFormatError("ed25519 secret must be 32 bytes")
        return ed25519.Ed25519PrivateKey.from_private_bytes(secret)
    if scheme_id == SCHEME_RSA_SHA256:
        from cryptography.hazmat.primitives.serialization import load_der_private_key

        try:
            return load_der_private_key(secret, password=None)
        except (ValueError, TypeError) as exc:
            raise KeyFormatError(f"bad RSA secret key: {exc}") from exc
    raise KeyFormatError(f"unknown scheme id {scheme_id}")


def public_key(key) -> PublicKey:
    """The PublicKey of a cryptography public-key object of either scheme."""
    from cryptography.hazmat.primitives import serialization
    from cryptography.hazmat.primitives.asymmetric import ed25519, rsa

    if isinstance(key, ed25519.Ed25519PublicKey):
        raw = key.public_bytes(serialization.Encoding.Raw, serialization.PublicFormat.Raw)
        return PublicKey(SCHEME_ED25519, raw)
    if isinstance(key, rsa.RSAPublicKey):
        der = key.public_bytes(
            serialization.Encoding.DER, serialization.PublicFormat.SubjectPublicKeyInfo
        )
        return PublicKey(SCHEME_RSA_SHA256, der)
    raise KeyFormatError("unsupported certificate key type")


def generate_sig_keypair(
    scheme_id: int = SCHEME_ED25519, rng: RandomSource = DEFAULT
) -> SigKeyPair:
    if scheme_id == SCHEME_ED25519:
        secret = rng.bytes(32)
    elif scheme_id == SCHEME_RSA_SHA256:
        # RSA key generation draws from OS entropy; not seed-reproducible.
        from cryptography.hazmat.primitives import serialization
        from cryptography.hazmat.primitives.asymmetric import rsa

        key = rsa.generate_private_key(public_exponent=65537, key_size=2048)
        secret = key.private_bytes(
            serialization.Encoding.DER,
            serialization.PrivateFormat.PKCS8,
            serialization.NoEncryption(),
        )
    else:
        raise KeyFormatError(f"unknown scheme id {scheme_id}")
    return SigKeyPair(public_key(private_key(scheme_id, secret).public_key()), secret)


def sign(keypair: SigKeyPair, message: bytes) -> bytes:
    """Sign message under the pair's scheme; both schemes are deterministic."""
    key = private_key(keypair.scheme_id, keypair.secret)
    if keypair.scheme_id == SCHEME_RSA_SHA256:
        from cryptography.hazmat.primitives import hashes
        from cryptography.hazmat.primitives.asymmetric import padding

        return key.sign(message, padding.PKCS1v15(), hashes.SHA256())
    return key.sign(message)


def verify(public: PublicKey, message: bytes, signature: bytes) -> bool:
    from cryptography.exceptions import InvalidSignature

    try:
        if public.scheme_id == SCHEME_ED25519:
            from cryptography.hazmat.primitives.asymmetric import ed25519

            ed25519.Ed25519PublicKey.from_public_bytes(public.data).verify(
                signature, message
            )
            return True
        if public.scheme_id == SCHEME_RSA_SHA256:
            from cryptography.hazmat.primitives import hashes
            from cryptography.hazmat.primitives.asymmetric import padding
            from cryptography.hazmat.primitives.serialization import (
                load_der_public_key,
            )

            load_der_public_key(public.data).verify(
                signature, message, padding.PKCS1v15(), hashes.SHA256()
            )
            return True
    except (InvalidSignature, ValueError):
        return False
    raise KeyFormatError(f"unknown scheme id {public.scheme_id}")


# ---------------------------------------------------------------------------
# Group parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupParams:
    """Prime-order subgroup of Z_p^*: q | p-1, g generates the order-q group."""

    p: int
    q: int
    g: int

    @property
    def element_len(self) -> int:
        return (self.p.bit_length() + 7) // 8

    def element_bytes(self, value: int) -> bytes:
        return value.to_bytes(self.element_len, "big")


def _parse_hex(blob: str) -> int:
    return int(blob.replace(" ", "").replace("\n", ""), 16)


# 2048-bit modulus with a 256-bit prime-order subgroup (RFC 5114 group 23).
GROUP_2048_256 = GroupParams(
    p=_parse_hex(
        """
        87A8E61D B4B6663C FFBBD19C 65195999 8CEEF608 660DD0F2 5D2CEED4 435E3B00
        E00DF8F1 D61957D4 FAF7DF45 61B2AA30 16C3D911 34096FAA 3BF4296D 830E9A7C
        209E0C64 97517ABD 5A8A9D30 6BCF67ED 91F9E672 5B4758C0 22E0B1EF 4275BF7B
        6C5BFC11 D45F9088 B941F54E B1E59BB8 BC39A0BF 12307F5C 4FDB70C5 81B23F76
        B63ACAE1 CAA6B790 2D525267 35488A0E F13C6D9A 51BFA4AB 3AD83477 96524D8E
        F6A167B5 A41825D9 67E144E5 14056425 1CCACB83 E6B486F6 B3CA3F79 71506026
        C0B857F6 89962856 DED4010A BD0BE621 C3A3960A 54E710C3 75F26375 D7014103
        A4B54330 C198AF12 6116D227 6E11715F 693877FA D7EF09CA DB094AE9 1E1A1597
        """
    ),
    q=_parse_hex("8CF83642 A709A097 B4479976 40129DA2 99B1A47D 1EB3750B A308B0FE 64F5FBD3"),
    g=_parse_hex(
        """
        3FB32C9B 73134D0B 2E775066 60EDBD48 4CA7B18F 21EF2054 07F4793A 1A0BA125
        10DBC150 77BE463F FF4FED4A AC0BB555 BE3A6C1B 0C6B47B1 BC3773BF 7E8C6F62
        901228F8 C28CBB18 A55AE313 41000A65 0196F931 C77A57F2 DDF463E5 E9EC144B
        777DE62A AAB8A862 8AC376D2 82D6ED38 64E67982 428EBC83 1D14348F 6F2F9193
        B5045AF2 767164E1 DFC967C1 FB3F2E55 A4BD1BFF E83B9C80 D052B985 D182EA0A
        DB2A3B73 13D3FE14 C8484B1E 052588B9 B7D2BBD2 DF016199 ECD06E15 57CD0915
        B3353BBB 64E0EC37 7FD02837 0DF92B52 C7891428 CDC67EB6 184B523D 1DB246C3
        2F630784 90F00EF8 D647D148 D4795451 5E2327CF EF98C582 664B4C0F 6CC41659
        """
    ),
)

# Tiny group for algebra tests; offers no security.
TOY_GROUP = GroupParams(p=23, q=11, g=4)

# The groups a contract may name.  A peer naming another is refused before
# any power is computed, so no peer picks a group whose comb costs seconds.
GROUPS = (GROUP_2048_256, TOY_GROUP)


@functools.lru_cache(maxsize=4)
def generator_comb(params: GroupParams) -> FixedBaseComb:
    """The comb for g, built on first use: 512 elements (128 KB at 2048 bits)."""
    return FixedBaseComb(params.g, params.p, params.q.bit_length(), teeth=8, tables=2)


# ---------------------------------------------------------------------------
# Chameleon hash and signatures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChameleonPublicKey:
    params: GroupParams
    y: int


@dataclass(frozen=True)
class ChameleonKeyPair:
    """Trapdoor x is held by the signature recipient only; y = g^x mod p."""

    params: GroupParams
    x: int
    y: int

    @property
    def public(self) -> ChameleonPublicKey:
        return ChameleonPublicKey(self.params, self.y)


def generate_chameleon_keypair(
    params: GroupParams, rng: RandomSource = DEFAULT
) -> ChameleonKeyPair:
    x = 1 + rng.below(params.q - 1)
    return ChameleonKeyPair(params, x, generator_comb(params).pow(x))


# At most 8 MB of combs at 2048 bits: room for every customer of a fleet.
RECIPIENT_COMB_CAPACITY = 256


@functools.lru_cache(maxsize=RECIPIENT_COMB_CAPACITY)
def recipient_comb(recipient: ChameleonPublicKey) -> FixedBaseComb:
    """The comb for one recipient's y, built by the first chameleon hash
    toward it: 128 elements (32 KB at 2048 bits).

    Building it costs about 1.2 plain exponentiations, so it pays off for a
    key that checks or receives many signatures.
    """
    params = recipient.params
    return FixedBaseComb(recipient.y, params.p, params.q.bit_length(), teeth=6, tables=2)


def message_exponent(params: GroupParams, message: bytes) -> int:
    """h(m) as a big-endian integer reduced mod q."""
    return int.from_bytes(hash_h(message), "big") % params.q


def chameleon_hash(params: GroupParams, y: int, message: bytes, r: int) -> int:
    """CH(m, r) = g^{h(m)} * y^r mod p, in one pass over g's comb and y's."""
    if not 0 <= r < params.q:
        raise ParameterError("chameleon randomizer out of range")
    e = message_exponent(params, message)
    y_comb = recipient_comb(ChameleonPublicKey(params, y))
    return generator_comb(params).pow2(e, y_comb, r)


def trapdoor_hash(kp: ChameleonKeyPair, message: bytes, r: int) -> int:
    """CH(m, r) as its recipient computes it: g^{(h(m) + x*r) mod q}, one
    comb pass over g and no power of y.  It equals chameleon_hash only if
    y = g^x."""
    params = kp.params
    if not 0 <= r < params.q:
        raise ParameterError("chameleon randomizer out of range")
    e = (message_exponent(params, message) + kp.x * r) % params.q
    return generator_comb(params).pow(e)


def find_collision(
    kp: ChameleonKeyPair, message: bytes, r: int, new_message: bytes
) -> int:
    """Trapdoor collision: r' with CH(m', r') = CH(m, r).

    Solves h(m) + x*r = h(m') + x*r' mod q for r'.
    """
    if not 0 <= r < kp.params.q:
        raise ParameterError("chameleon randomizer out of range")
    if kp.x % kp.params.q == 0:
        raise KeyFormatError("trapdoor is not invertible")
    e_old = message_exponent(kp.params, message)
    e_new = message_exponent(kp.params, new_message)
    x_inv = pow(kp.x, -1, kp.params.q)
    return (e_old - e_new + kp.x * r) * x_inv % kp.params.q


@dataclass(frozen=True)
class ChameleonSignature:
    """(r, standard signature over h(CH || context), context).

    The context carries the recipient's customer number and the payload
    label, so a signature never verifies for another recipient.
    """

    r: int
    inner_sig: bytes
    context: bytes


def _chameleon_digest(params: GroupParams, ch: int, context: bytes) -> bytes:
    return hash_h(params.element_bytes(ch) + context)


def chameleon_sign(
    signer: SigKeyPair,
    recipient: ChameleonPublicKey,
    message: bytes,
    context: bytes,
    rng: RandomSource = DEFAULT,
) -> tuple[ChameleonSignature, int]:
    """Sign message toward one recipient; convincing only to them.

    Returns the signature and the chameleon hash CH(m, r) it covers.
    Callers with record-keeping duties (the insurer) must log (message, r)
    so forged collisions can be uncovered later.
    """
    params = recipient.params
    r = rng.below(params.q)
    ch = chameleon_hash(params, recipient.y, message, r)
    inner = sign(signer, _chameleon_digest(params, ch, context))
    return ChameleonSignature(r, inner, context), ch


def chameleon_verify(
    signer_pub: PublicKey,
    recipient: ChameleonPublicKey,
    message: bytes,
    sig: ChameleonSignature,
    context: bytes | None = None,
) -> bool:
    """Accept iff the inner signature covers h(CH(m, r) || context)."""
    if context is not None and sig.context != context:
        return False
    params = recipient.params
    if not 0 <= sig.r < params.q:
        return False
    ch = chameleon_hash(params, recipient.y, message, sig.r)
    return verify(signer_pub, _chameleon_digest(params, ch, sig.context), sig.inner_sig)


def recipient_verify(
    signer_pub: PublicKey,
    kp: ChameleonKeyPair,
    message: bytes,
    sig: ChameleonSignature,
    context: bytes | None = None,
) -> bool:
    """chameleon_verify for the recipient, who holds the trapdoor: CH comes
    from trapdoor_hash.  That is CH only if y = g^x, so a signature it
    rejects is checked again by chameleon_verify; a key pair whose y is not
    g^x never makes a good signature look forged."""
    if (context is None or sig.context == context) and 0 <= sig.r < kp.params.q:
        ch = trapdoor_hash(kp, message, sig.r)
        if verify(signer_pub, _chameleon_digest(kp.params, ch, sig.context), sig.inner_sig):
            return True
    return chameleon_verify(signer_pub, kp.public, message, sig, context)


# ---------------------------------------------------------------------------
# Proof of trapdoor knowledge (Schnorr, Fiat-Shamir)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrapdoorProof:
    u: int
    c: int
    z: int


def _trapdoor_challenge(
    params: GroupParams, y: int, u: int, context: bytes
) -> int:
    transcript = (
        b"trapdoor-proof:"
        + params.element_bytes(params.p)
        + params.element_bytes(params.q)
        + params.element_bytes(params.g)
        + params.element_bytes(y)
        + params.element_bytes(u)
        + context
    )
    return int.from_bytes(hash_h(transcript), "big") % params.q


def prove_trapdoor(
    kp: ChameleonKeyPair, context: bytes, rng: RandomSource = DEFAULT
) -> TrapdoorProof:
    """Non-interactive proof of knowledge of x with y = g^x, bound to context."""
    params = kp.params
    k = rng.below(params.q)
    u = generator_comb(params).pow(k)
    c = _trapdoor_challenge(params, kp.y, u, context)
    z = (k + c * kp.x) % params.q
    return TrapdoorProof(u, c, z)


def verify_trapdoor(
    y: int, params: GroupParams, context: bytes, proof: TrapdoorProof
) -> bool:
    """Accept iff g^z = u * y^c mod p with c recomputed from the transcript.

    The ranges and the challenge, a hash, are checked on every call; only
    the powers are cached, keyed without the context, so a contract checked
    again (each claim embeds its contract) costs one hash, and a context
    that fails the challenge is never held.
    """
    if not (0 < y < params.p and 0 < proof.u < params.p and 0 <= proof.z < params.q):
        return False
    if proof.c != _trapdoor_challenge(params, y, proof.u, context):
        return False
    return _proof_holds(y, params, proof)


@functools.lru_cache(maxsize=RECIPIENT_COMB_CAPACITY)
def _proof_holds(y: int, params: GroupParams, proof: TrapdoorProof) -> bool:
    lhs = generator_comb(params).pow(proof.z)
    return lhs == proof.u * modexp(y, proof.c, params.p) % params.p


# The test suite clears the cache between tests through these.
verify_trapdoor.cache_info = _proof_holds.cache_info
verify_trapdoor.cache_clear = _proof_holds.cache_clear
