"""Field-table codecs: decode inverts encode for every record type, and
decoders accept only canonical encodings (decode then encode gives back
the input bytes, or decoding fails)."""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conninsure import crypto, wire
from conninsure.errors import EncodingError, ParameterError
from conninsure.insurer import RegistrationRequest
from conninsure.model import (
    Claim,
    Contract,
    CycleRecord,
    HandshakeTranscript,
    InclusionProof,
    RollbackDelta,
    RollbackEntry,
    Voucher,
    VoucherEvidence,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "fixtures", "golden_codec.json")

u64s = st.integers(min_value=0, max_value=2**64 - 1)
opt_u64s = st.none() | st.integers(min_value=0, max_value=2**64 - 2)
ints = st.integers(min_value=0, max_value=2**300)
blobs = st.binary(max_size=40)
opt_blobs = st.none() | st.binary(min_size=1, max_size=40)
opt_bools = st.none() | st.booleans()
b32 = st.binary(min_size=32, max_size=32)
domains = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789.-", max_size=20)

public_keys = st.builds(crypto.PublicKey, u64s, blobs)
group_params = st.builds(crypto.GroupParams, ints, ints, ints)
chameleon_publics = st.builds(crypto.ChameleonPublicKey, group_params, ints)
chameleon_sigs = st.builds(crypto.ChameleonSignature, ints, blobs, blobs)
trapdoor_proofs = st.builds(crypto.TrapdoorProof, ints, ints, ints)
contracts = st.builds(
    Contract, u64s, public_keys, public_keys, chameleon_publics, trapdoor_proofs,
    u64s, u64s, u64s,
)
vouchers = st.builds(Voucher, u64s, domains, b32, b32)
transcripts = st.builds(HandshakeTranscript, b32, b32, blobs, blobs, u64s, u64s)
evidences = st.builds(VoucherEvidence, blobs, vouchers, transcripts)
proofs = st.builds(
    InclusionProof, u64s, st.lists(st.tuples(b32, st.booleans()), max_size=4).map(tuple)
)
cycle_records = st.builds(
    CycleRecord, u64s, blobs, u64s, blobs, opt_u64s, opt_blobs,
    st.none() | chameleon_sigs, opt_u64s, opt_blobs, opt_blobs,
    st.none() | chameleon_sigs, opt_blobs, opt_bools, opt_bools,
    st.lists(evidences, max_size=3).map(lambda evs: {e.voucher.domain: e for e in evs}),
)
claims = st.builds(
    Claim, contracts, st.lists(blobs, max_size=4).map(tuple), blobs, u64s, u64s,
    chameleon_sigs, chameleon_sigs, blobs, proofs, evidences, u64s,
)
pairs = st.lists(st.tuples(u64s, blobs), max_size=4).map(tuple)
deltas = st.builds(RollbackDelta, u64s, pairs, pairs)
registrations = st.builds(
    RegistrationRequest, public_keys, chameleon_publics, trapdoor_proofs, u64s
)

# (strategy, encode, decode) per record type.
CODECS = {
    "public_key": (public_keys, wire.PUBLIC_KEY.encode, wire.PUBLIC_KEY.decode),
    "group_params": (group_params, wire.GROUP_PARAMS.encode, wire.GROUP_PARAMS.decode),
    "chameleon_public": (
        chameleon_publics, wire.CHAMELEON_PUBLIC.encode, wire.CHAMELEON_PUBLIC.decode
    ),
    "chameleon_signature": (
        chameleon_sigs, wire.CHAMELEON_SIGNATURE.encode, wire.CHAMELEON_SIGNATURE.decode
    ),
    "trapdoor_proof": (
        trapdoor_proofs, wire.TRAPDOOR_PROOF.encode, wire.TRAPDOOR_PROOF.decode
    ),
}
for _name, _strategy, _cls in [
    ("contract", contracts, Contract),
    ("voucher", vouchers, Voucher),
    ("transcript", transcripts, HandshakeTranscript),
    ("evidence", evidences, VoucherEvidence),
    ("inclusion_proof", proofs, InclusionProof),
    ("cycle_record", cycle_records, CycleRecord),
    ("claim", claims, Claim),
    ("rollback_delta", deltas, RollbackDelta),
    ("rollback_entry", st.builds(RollbackEntry, deltas, u64s), RollbackEntry),
    ("registration_request", registrations, RegistrationRequest),
]:
    CODECS[_name] = (_strategy, _cls.to_bytes, _cls.from_bytes)


@pytest.mark.parametrize("name", sorted(CODECS))
def test_decode_inverts_encode(name):
    strategy, encode, decode = CODECS[name]

    @given(strategy)
    @settings(max_examples=60, deadline=None)
    def check(value):
        assert decode(encode(value)) == value

    check()


@pytest.mark.parametrize("name", sorted(CODECS))
def test_accepted_bytes_reencode_identically(name):
    """Overwrite one byte of a valid encoding; whatever still decodes must
    encode back to exactly those bytes."""
    strategy, encode, decode = CODECS[name]

    @given(strategy, st.data())
    @settings(max_examples=150, deadline=None)
    def check(value, data):
        blob = bytearray(encode(value))
        index = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        blob[index] = data.draw(st.integers(min_value=0, max_value=255))
        blob = bytes(blob)
        try:
            decoded = decode(blob)
        except (EncodingError, ParameterError):
            return
        assert encode(decoded) == blob

    check()


# ---------------------------------------------------------------------------
# Non-canonical encodings that older decoders accepted
# ---------------------------------------------------------------------------


def _golden(name):
    with open(GOLDEN) as fh:
        return bytes.fromhex(json.load(fh)[name])


def _with_field(blob, field_tags, index, item):
    """Replace field `index` of a record with an encoded item."""
    tag, body, _ = wire.unpack(blob)
    raw = wire.fields(body, *field_tags)
    items = [wire.pack(t, v) for t, v in zip(field_tags, raw)]
    items[index] = item
    return wire.pack(tag, b"".join(items))


CYCLE_RECORD_TAGS = [
    wire.TAG_UINT, wire.TAG_BYTES, wire.TAG_UINT, wire.TAG_BYTES, wire.TAG_UINT,
    wire.TAG_BYTES, wire.TAG_CHAMELEON_SIG, wire.TAG_UINT, wire.TAG_BYTES,
    wire.TAG_BYTES, wire.TAG_CHAMELEON_SIG, wire.TAG_BYTES, wire.TAG_UINT,
    wire.TAG_UINT, wire.TAG_LIST,
]


def _u64_item(value):
    return wire.pack(wire.TAG_UINT, wire.u64(value))


def _proof_step(digest, flag):
    return wire.pack(
        wire.TAG_PAIR, wire.pack(wire.TAG_BYTES, digest) + _u64_item(flag)
    )


def _proof(*steps):
    body = _u64_item(0) + wire.pack(wire.TAG_LIST, b"".join(steps))
    return wire.pack(wire.TAG_INCLUSION_PROOF, body)


def test_proof_step_flags_zero_and_one_decode():
    proof = InclusionProof.from_bytes(
        _proof(_proof_step(b"\x01" * 32, 0), _proof_step(b"\x02" * 32, 1))
    )
    assert proof.path == ((b"\x01" * 32, False), (b"\x02" * 32, True))


def test_proof_step_flag_two_rejected():
    with pytest.raises(EncodingError):
        InclusionProof.from_bytes(_proof(_proof_step(b"\x01" * 32, 2)))


@pytest.mark.parametrize("index, value", [(12, 7), (12, 3), (13, 3)])
def test_cycle_record_coverage_out_of_range_rejected(index, value):
    blob = _with_field(
        _golden("cycle_record_closed"), CYCLE_RECORD_TAGS, index, _u64_item(value)
    )
    with pytest.raises(EncodingError):
        CycleRecord.from_bytes(blob)


def _evidence_items(blob):
    _, body, _ = wire.unpack(blob)
    raw = wire.fields(body, *CYCLE_RECORD_TAGS)
    return [wire.pack(t, v) for t, v in wire.iter_items(raw[14])]


def test_golden_cycle_record_has_two_sorted_evidences():
    blob = _golden("cycle_record_closed")
    record = CycleRecord.from_bytes(blob)
    assert len(_evidence_items(blob)) == 2
    assert list(record.evidences) == sorted(record.evidences)


@pytest.mark.parametrize("order", [(0, 0), (1, 0)], ids=["duplicate", "unsorted"])
def test_cycle_record_evidence_order_must_be_strict(order):
    blob = _golden("cycle_record_closed")
    items = _evidence_items(blob)
    evidence_list = wire.pack(wire.TAG_LIST, b"".join(items[i] for i in order))
    with pytest.raises(EncodingError):
        CycleRecord.from_bytes(_with_field(blob, CYCLE_RECORD_TAGS, 14, evidence_list))
