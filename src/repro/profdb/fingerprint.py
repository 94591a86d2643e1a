"""Static method/program fingerprints for the profile repository.

The persistent profile DB (:mod:`repro.profdb`) keys stored TEST
profiles by *what code produced them*.  The fingerprint is exact: it
keeps every operand, constants included, and keys each stored record
(:meth:`~repro.profdb.db.ProfileDb.input_key`), so a stored sequential
measurement is only ever replayed for the byte-equivalent program it
was measured on, and an edited program misses.

Everything here is deterministic: :meth:`Program.all_methods` iterates
in sorted (class, method) order and instruction arguments are scalars,
strings or tuples of those, all with stable ``repr``.
"""

import hashlib


def method_fingerprint(method):
    """SHA-256 hex digest of one method's code.

    Line numbers and every operand participate, so any real edit to
    the method changes the digest.
    """
    digest = hashlib.sha256()
    digest.update(method.qualified_name.encode())
    digest.update(b"|%d|%d" % (method.max_locals,
                               1 if method.is_synchronized else 0))
    for instr in method.code:
        digest.update(("%s:%s:%s;" % (
            instr.op.name, "" if instr.arg is None else repr(instr.arg),
            instr.line)).encode())
    return digest.hexdigest()


def program_fingerprint(program):
    """SHA-256 hex digest over every method of *program*.

    Combines the per-method fingerprints in the deterministic
    :meth:`Program.all_methods` order; it keys stored measurements to
    one specific program and input size.
    """
    digest = hashlib.sha256()
    for method in program.all_methods():
        digest.update(method.qualified_name.encode())
        digest.update(b"=")
        digest.update(method_fingerprint(method).encode())
        digest.update(b";")
    return digest.hexdigest()
