import errno
import json
import os

import pytest

from conninsure import crypto
from conninsure.rand import RandomSource

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def load_hex_fixture(name: str) -> bytes:
    with open(fixture_path(name)) as fh:
        return bytes.fromhex(fh.read().strip())


# Fault injection: fail_once replaces owner.name so that its next call runs
# action(real, *args) instead; later calls reach the real function again.


def fail_once(monkeypatch, owner, name: str, action) -> None:
    real = getattr(owner, name)

    def once(*args):
        monkeypatch.setattr(owner, name, real)
        return action(real, *args)

    monkeypatch.setattr(owner, name, once)


def io_error(real, *args):
    raise OSError(errno.EIO, "injected I/O error")


def torn_write(real, data):
    """Writes half the bytes, then fails."""
    real(data[: len(data) // 2])
    raise OSError(errno.ENOSPC, "injected I/O error after a partial write")


def short_write(real, data):
    return real(data[: len(data) // 2])


@pytest.fixture(scope="session")
def toy_vectors():
    with open(fixture_path("toy_chameleon_vectors.json")) as fh:
        return json.load(fh)


@pytest.fixture
def rng():
    return RandomSource(1234)


@pytest.fixture(scope="session")
def insurer_keypair():
    return crypto.generate_sig_keypair(crypto.SCHEME_ED25519, RandomSource(99))


@pytest.fixture(scope="session")
def toy_chameleon():
    """Recipient chameleon key pair on the toy group (x=3, y=18)."""
    return crypto.ChameleonKeyPair(crypto.TOY_GROUP, 3, 18)


@pytest.fixture(scope="session")
def prod_chameleon():
    return crypto.generate_chameleon_keypair(
        crypto.GROUP_2048_256, RandomSource(7)
    )
