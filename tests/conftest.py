import json
import os

import pytest

from conninsure import crypto
from conninsure.rand import RandomSource
from support import fixture_path


@pytest.fixture(scope="session")
def toy_vectors():
    with open(fixture_path("toy_chameleon_vectors.json")) as fh:
        return json.load(fh)


@pytest.fixture(autouse=True)
def clear_trapdoor_memo():
    """Each test starts with no proof result remembered, whatever ran before."""
    crypto.verify_trapdoor.cache_clear()


@pytest.fixture
def permissive_umask():
    """The process umask is 022, as on many systems, until the test ends."""
    previous = os.umask(0o022)
    yield
    os.umask(previous)


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
