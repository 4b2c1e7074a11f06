"""Storage feasibility arithmetic for insurers and their customers.

All outputs are exact integer byte counts; GB/GiB formatting is
presentation only.  The published customer figure of ~0.58 GB/year is only
reproduced by the low end (1000/day) of the voucher-count estimate, not by
the printed 2500/day, so reports surface both readings.
"""

from dataclasses import dataclass

from .errors import ParameterError


@dataclass(frozen=True)
class EstimatorParams:
    n_domains: int = 500_000
    cert_bytes: int = 1_900
    cert_validity_days: int = 90
    vouchers_per_day: int = 2_500
    voucher_bytes_customer: int = 1_700
    voucher_bytes_insurer: int = 512
    cycle_overhead_bytes: int = 128
    cycles_per_day: int = 24
    customers: int = 44_000_000
    retention_days: int = 365

    def validate(self) -> None:
        if min(
            self.n_domains,
            self.cert_bytes,
            self.cert_validity_days,
            self.voucher_bytes_customer,
            self.voucher_bytes_insurer,
            self.cycle_overhead_bytes,
            self.customers,
            self.retention_days,
        ) <= 0 or min(self.vouchers_per_day, self.cycles_per_day) < 0:
            raise ParameterError("estimator parameters must be positive")
        if self.cert_validity_days > self.retention_days:
            raise ParameterError("certificate validity exceeds the retention window")


# The paper's figures: the defaults of the functions below and of the CLI.
REFERENCE = EstimatorParams()


def cert_storage_bytes(n_domains: int, cert_bytes: int, validity_days: int,
                       retention_days: int = REFERENCE.retention_days) -> int:
    """Customer-side certificate storage per year: n * s * (365/k - 1)."""
    if validity_days <= 0:
        raise ParameterError("certificate validity must be positive")
    return n_domains * cert_bytes * (retention_days - validity_days) // validity_days


def customer_voucher_storage_bytes(
    vouchers_per_day: int,
    voucher_bytes: int = REFERENCE.voucher_bytes_customer,
    cycles_per_day: int = REFERENCE.cycles_per_day,
    cycle_overhead_bytes: int = REFERENCE.cycle_overhead_bytes,
    retention_days: int = REFERENCE.retention_days,
) -> int:
    """Customer-side voucher storage per year."""
    per_day = vouchers_per_day * voucher_bytes + cycle_overhead_bytes * cycles_per_day
    return per_day * retention_days


def insurer_voucher_storage_bytes(
    voucher_bytes: int = REFERENCE.voucher_bytes_insurer,
    cycles_per_day: int = REFERENCE.cycles_per_day,
    customers: int = REFERENCE.customers,
    retention_days: int = REFERENCE.retention_days,
) -> int:
    """Insurer-side voucher storage per year across all customers."""
    return voucher_bytes * cycles_per_day * retention_days * customers


def _units(n: int) -> dict:
    return {
        "bytes": n,
        "gb_decimal": n / 1e9,
        "gib_binary": n / 2**30,
        "tb_decimal": n / 1e12,
        "tib_binary": n / 2**40,
    }


def storage_report(params: EstimatorParams) -> dict:
    """Full storage estimate with both unit systems and the dual reading."""
    params.validate()
    cert = cert_storage_bytes(
        params.n_domains, params.cert_bytes, params.cert_validity_days,
        params.retention_days,
    )
    customer = customer_voucher_storage_bytes(
        params.vouchers_per_day,
        params.voucher_bytes_customer,
        params.cycles_per_day,
        params.cycle_overhead_bytes,
        params.retention_days,
    )
    customer_low = customer_voucher_storage_bytes(
        1000,
        params.voucher_bytes_customer,
        params.cycles_per_day,
        params.cycle_overhead_bytes,
        params.retention_days,
    )
    insurer = insurer_voucher_storage_bytes(
        params.voucher_bytes_insurer,
        params.cycles_per_day,
        params.customers,
        params.retention_days,
    )
    return {
        "params": params.__dict__,
        "certificates": _units(cert),
        "customer_vouchers": _units(customer),
        "customer_vouchers_low_estimate": _units(customer_low),
        "insurer_vouchers": _units(insurer),
        "note": (
            "customer voucher storage reads ~0.58 GiB/year at 1000 vouchers/day "
            "but ~1.45 GiB/year at the printed 2500/day; both are reported"
        ),
    }
