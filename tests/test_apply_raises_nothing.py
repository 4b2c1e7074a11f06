"""Insurer._apply raises nothing: each log event's rules live in one
place, Insurer._check, which the live operations and the replay both run
before _apply.  A raise in _apply would be a second copy of a rule, one
that the live path and the replay could disagree on."""

import ast
import textwrap
from pathlib import Path

import conninsure.insurer

INSURER = Path(conninsure.insurer.__file__)


def raises_in_apply(source: str) -> list[int]:
    """The line of each raise statement in Insurer._apply of source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name == "Insurer":
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and method.name == "_apply":
                    return [n.lineno for n in ast.walk(method) if isinstance(n, ast.Raise)]
    raise AssertionError("no Insurer._apply in the source")


def test_apply_raises_nothing():
    assert raises_in_apply(INSURER.read_text()) == []


# An Insurer._apply that holds its own copy of the replay rules.
APPLY_WITH_RULES = '''\
class Insurer:
    def _apply(self, tag: int, value) -> None:
        """The state change of one logged event, live or replayed.  An event
        that the live operations refuse to log is CorruptionError."""
        if tag in _FULL_CH_EVENTS:  # an older event: hash its CH
            tag, value = _FULL_CH_EVENTS[tag], (*value[:-1], crypto.hash_h(value[-1]))
        if tag == wire.LOG_REGISTER:
            (contract,) = value
            if contract.customer in self.contracts:
                raise CorruptionError(f"customer {contract.customer} registered twice")
            self.contracts[contract.customer] = contract
            self._next_customer = max(self._next_customer, contract.customer + 1)
        elif tag in (wire.LOG_UPDATE_CERTS, wire.LOG_UPDATE_CERTS_LIST):
            if tag == wire.LOG_UPDATE_CERTS_LIST:  # remove all, append the new list
                certs, version = value
                value = range(len(self.certs)), certs, version
            removed, appended, version = value
            if version != self.cert_version + 1:
                raise CorruptionError(f"list version {version} after {self.cert_version}")
            if not valid_positions(removed, len(self.certs)):
                raise CorruptionError("removed positions not ascending within the list")
            if len(removed) == len(self.certs) and not appended:
                raise CorruptionError("certificate list must not become empty")
            self.listing = self.listing.updated(removed, appended)
            self.cert_version = version
        elif tag == wire.LOG_BEGIN_CYCLE:
            customer, cycleid, version = value
            if version != self.cert_version:
                raise CorruptionError(
                    f"cycle begins on list version {version}, current is {self.cert_version}"
                )
            self._open(customer, cycleid, self.listing)
        elif tag == wire.LOG_BEGIN_CYCLE_LIST:
            customer, cycleid, certs = value
            if certs != self.certs:
                raise CorruptionError("cycle begins on a list other than the current one")
            self._open(customer, cycleid, self.listing)
        elif tag == wire.LOG_ACK_CERTS_HCH:
            customer, t, message, r, ch_digest = value
            cycle = self._cycle_in(customer, _PENDING)
            cycle.state = _ACKED
            cycle.t = t
            self._store_record(ChameleonRecord(customer, message, r, ch_digest))
        else:
            record = ChameleonRecord(*value)
            self._cycle_in(record.customer, _ACKED)
            del self.open_cycles[record.customer]
            self._store_record(record)

'''


def test_guard_sees_a_raise_in_apply():
    assert len(raises_in_apply(APPLY_WITH_RULES)) == 6
    assert raises_in_apply(textwrap.dedent("""\
        class Insurer:
            def _apply(self, tag, value):
                self.x = value
        """)) == []
