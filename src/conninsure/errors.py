"""Exception hierarchy shared by the whole suite."""


class CIError(Exception):
    """Base class for all protocol-suite errors."""


class EncodingError(CIError):
    """Malformed or non-canonical TLV data."""


class ParameterError(CIError):
    """A value is outside its declared domain (range, length, label)."""


class KeyFormatError(CIError):
    """Key material does not match its declared scheme."""


class CapacityError(CIError):
    """More real vouchers than the tree has leaves."""


class NotFoundError(CIError):
    """Requested item is absent (voucher, certificate, record)."""


class SequencingError(CIError):
    """Protocol step attempted out of order for a contract."""


class RecencyError(CIError):
    """A timestamp falls outside the accepted freshness window."""


class ExpiredContractError(CIError):
    """Operation attempted outside the contract validity term."""


class SignatureInvalid(CIError):
    """A signature failed verification where acceptance was required."""


class RegistrationRejected(CIError):
    """Insurer refused a registration application."""


class CorruptionError(CIError):
    """A stored frame or record does not decode or does not fit its state,
    or a failed write left bytes in a file that could not be taken back."""


class EvidenceError(CIError):
    """A handshake transcript does not support the claimed voucher."""


class InsurerMisbehavior(CIError):
    """The insurer returned an invalid countersignature; cycle aborted."""


class ClaimFormatError(CIError):
    """A claim file parsed but violates structural invariants."""
