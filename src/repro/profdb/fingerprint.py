"""Static method/program fingerprints for the profile repository.

The persistent profile DB (:mod:`repro.profdb`) keys stored TEST
profiles by *what code produced them*.  Two granularities:

* the **structural** fingerprint masks the values of ``ICONST`` /
  ``FCONST`` operands, so the small/default/large sizes of one
  registry workload — which differ only in embedded constants — hash
  alike;
* the **exact** fingerprint keeps constant values; it keys each stored
  record (:meth:`~repro.profdb.db.ProfileDb.input_key`), so a stored
  sequential measurement is only ever replayed for the byte-equivalent
  program it was measured on, and an edited program misses.

Everything here is deterministic: :meth:`Program.all_methods` iterates
in sorted (class, method) order and instruction arguments are scalars,
strings or tuples of those, all with stable ``repr``.
"""

import hashlib

from ..bytecode.opcodes import Op

#: opcodes whose argument is a program constant (masked structurally)
_CONST_OPS = (Op.ICONST, Op.FCONST)


def _arg_token(instr, include_constants):
    """A deterministic text token for one instruction argument."""
    if instr.arg is None:
        return ""
    if not include_constants and instr.op in _CONST_OPS:
        return "<const>"
    return repr(instr.arg)


def method_fingerprint(method, include_constants=False):
    """SHA-256 hex digest of one method's code.

    With ``include_constants=False`` (the default, the *structural*
    form) ``ICONST``/``FCONST`` operand values are replaced by a
    placeholder so input-size constants do not perturb the hash; line
    numbers and every other operand participate, so any real edit to
    the method changes the digest.
    """
    digest = hashlib.sha256()
    digest.update(method.qualified_name.encode())
    digest.update(b"|%d|%d" % (method.max_locals,
                               1 if method.is_synchronized else 0))
    for instr in method.code:
        digest.update(("%s:%s:%s;" % (
            instr.op.name, _arg_token(instr, include_constants),
            instr.line)).encode())
    return digest.hexdigest()


def program_fingerprint(program, include_constants=False):
    """SHA-256 hex digest over every method of *program*.

    Combines the per-method fingerprints in the deterministic
    :meth:`Program.all_methods` order.  The structural form
    (``include_constants=False``) hashes every size of one program
    alike; the exact form keys stored measurements to one specific
    input size.
    """
    digest = hashlib.sha256()
    for method in program.all_methods():
        digest.update(method.qualified_name.encode())
        digest.update(b"=")
        digest.update(method_fingerprint(
            method, include_constants=include_constants).encode())
        digest.update(b";")
    return digest.hexdigest()

