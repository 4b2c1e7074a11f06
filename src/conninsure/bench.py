"""Wall-clock benchmark for chameleon sign/verify at production group size.

The gated means are for one recipient, whose comb (6 teeth, 2 tables) the
first chameleon hash toward it builds inside the timed sign loop (the warm
case: an insurer signing for a returning customer); from then on each
chameleon hash is one pass over the columns of g's comb and y's.  The cold
mean signs toward a never-seen recipient on every call, so each pays one
comb build for that key plus one pass; it is reported, not gated.
"""

import time
from dataclasses import dataclass

from . import crypto
from .errors import ParameterError
from .model import chameleon_context
from .rand import DEFAULT, RandomSource


@dataclass(frozen=True)
class BenchReport:
    iterations: int
    mean_sign_ms: float
    mean_verify_ms: float
    cold_sign_ms: float
    all_verified: bool


def bench_chameleon(iterations: int = 1000, rng: RandomSource = DEFAULT) -> BenchReport:
    """Mean sign and verify times in milliseconds over fresh messages.

    The cold sign mean is taken over max(100, iterations // 10) recipients.
    """
    if iterations < 100:
        raise ParameterError("need at least 100 iterations for a stable mean")
    signer = crypto.generate_sig_keypair(crypto.SCHEME_ED25519, rng)
    recipient = crypto.generate_chameleon_keypair(crypto.GROUP_2048_256, rng).public
    context = chameleon_context(0, "Certificates")

    messages = [rng.bytes(64) for _ in range(iterations)]
    sigs = []
    t0 = time.perf_counter()
    for message in messages:
        sig, _ = crypto.chameleon_sign(signer, recipient, message, context, rng)
        sigs.append(sig)
    t1 = time.perf_counter()
    all_ok = True
    for message, sig in zip(messages, sigs):
        all_ok &= crypto.chameleon_verify(signer.public, recipient, message, sig, context)
    t2 = time.perf_counter()

    cold = [
        crypto.generate_chameleon_keypair(crypto.GROUP_2048_256, rng).public
        for _ in range(max(100, iterations // 10))
    ]
    t3 = time.perf_counter()
    for message, other in zip(messages, cold):
        crypto.chameleon_sign(signer, other, message, context, rng)
    t4 = time.perf_counter()

    return BenchReport(
        iterations=iterations,
        mean_sign_ms=(t1 - t0) / iterations * 1000,
        mean_verify_ms=(t2 - t1) / iterations * 1000,
        cold_sign_ms=(t4 - t3) / len(cold) * 1000,
        all_verified=all_ok,
    )

