"""The sha256 constructor every digest in the package uses.

Importing ``hashlib`` loads ``_hashlib``, which maps OpenSSL's libcrypto:
~3.6 MB of resident memory in every process that simulates, for one
sha256 per fingerprint.  CPython ships its own sha256 as a built-in
module (``_sha2`` from 3.12, ``_sha256`` before), so prefer that, and
load ``hashlib`` only on an interpreter built without it.  sha256 is
sha256: every digest is byte-identical whichever constructor is chosen.
"""

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # built without either: OpenSSL's, via hashlib
        import hashlib
        sha256 = hashlib.sha256

__all__ = ["sha256"]
