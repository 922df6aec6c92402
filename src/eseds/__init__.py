"""Encrypted, efficiently searchable data structure for range queries.

The package splits along the trust boundary.  Client-side code
(:mod:`eseds.cipher`, :mod:`eseds.core`) holds the secret key and drives
every comparison; server-side code (:mod:`eseds.store`,
:mod:`eseds.transport`) only moves opaque cells around.  The remaining
modules (:mod:`eseds.transforms`, :mod:`eseds.attacks`, :mod:`eseds.cli`)
form a small lab for comparing the scheme against weaker legacy layouts.
"""

__version__ = "0.1.0"

from .cipher import SecretKey, decrypt, encrypt, keygen, prf
from .core import CoinSource, Domain, RangeQuery, RangeResult

__all__ = [
    "CoinSource",
    "Domain",
    "RangeQuery",
    "RangeResult",
    "SecretKey",
    "decrypt",
    "encrypt",
    "keygen",
    "prf",
]
