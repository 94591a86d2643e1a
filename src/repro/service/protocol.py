"""The jrpm service wire protocol: versioned line-delimited JSON.

One request per line, one response per line, UTF-8, ``\\n``-terminated.
Responses carry the request ``id`` so clients may pipeline (write many
requests before reading) — the daemon answers in completion order.

Request::

    {"v": 1, "id": "r1", "verb": "run",
     "payload": {"source": "...", "name": "loop",
                 "options": {... RunOptions.to_dict() ...}}}

Success response::

    {"v": 1, "id": "r1", "ok": true, "cached": false,
     "elapsed": 0.213, "result": {...}}

Error response::

    {"v": 1, "id": "r1", "ok": false,
     "error": {"kind": "timeout", "message": "..."}}

``result`` for ``run``/``run_adaptive`` contains a ``report`` entry —
the lossless ``JrpmReport.to_dict()`` payload, self-describing via its
own ``schema`` field (:data:`repro.serialize.REPORT_SCHEMA_VERSION`).
Error ``kind`` is one of ``bad-request`` | ``error`` | ``crashed`` |
``timeout`` | ``overloaded`` | ``draining`` | ``protocol``.

The protocol version covers only this envelope; mismatches are
rejected with kind ``protocol`` and the supported version echoed back
so clients can fail fast with a clear message.

Every frame is compact JSON with sorted keys.  A success frame is
written by :func:`encode_response` around a result that is already
encoded (:func:`encode_result`): the artifact store encodes each stored
result once and every reply that serves it splices in the same text,
byte-identical to encoding the whole frame at once.
"""

import json

from ..serialize import REPORT_SCHEMA_VERSION

#: envelope version — bump on any change to the frames documented above
PROTOCOL_VERSION = 1

#: the control verbs the daemon answers inline; the job verbs it
#: schedules are :data:`repro.service.jobs.VERBS`
CONTROL_VERBS = ("ping", "stats", "drain", "version", "profdb",
                 "metrics")

#: hard cap on one request line (a 64 MiB line is a bug, not a job)
MAX_LINE_BYTES = 64 * 1024 * 1024


class ProtocolError(ValueError):
    """Malformed frame (bad JSON, wrong version, missing fields)."""


#: compact separators (frames are machine-to-machine), sorted keys
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)


def encode_result(value):
    """The canonical JSON text of one frame value."""
    return _ENCODER.encode(value)


def encode_frame(frame):
    """Serialize one frame to its wire line (bytes, newline-terminated)."""
    return (encode_result(frame) + "\n").encode("utf-8")


def encode_response(request_id, result_json, cached=False, elapsed=0.0):
    """The wire line of a success frame carrying *result_json*, the
    :func:`encode_result` text of the verb's JSON-safe result — the
    bytes ``encode_frame`` gives the whole frame, keys in sorted
    order."""
    return ('{"cached":%s,"elapsed":%s,"id":%s,"ok":true,"result":%s,'
            '"v":%d}\n' % (encode_result(cached),
                           encode_result(round(elapsed, 6)),
                           encode_result(request_id), result_json,
                           PROTOCOL_VERSION)).encode("utf-8")


def decode_frame(line):
    """Parse one wire line into a frame dict."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError("frame exceeds %d bytes" % MAX_LINE_BYTES)
    try:
        frame = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise ProtocolError("undecodable frame: %s" % error)
    if not isinstance(frame, dict):
        raise ProtocolError("frame must be a JSON object, got %s"
                            % type(frame).__name__)
    return frame


def make_request(request_id, verb, payload=None):
    """A client->daemon frame for one verb invocation."""
    return {"v": PROTOCOL_VERSION, "id": request_id, "verb": verb,
            "payload": payload or {}}


def make_error(request_id, kind, message):
    """A failure frame; ``kind`` is the wire error discriminator."""
    return {"v": PROTOCOL_VERSION, "id": request_id, "ok": False,
            "error": {"kind": kind, "message": message}}


def check_request(frame):
    """Validate an incoming request envelope; returns (id, verb,
    payload).  Raises :class:`ProtocolError` with a message that names
    exactly what is wrong."""
    version = frame.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            "unsupported protocol version %r (this daemon speaks v%d; "
            "report schema v%d)"
            % (version, PROTOCOL_VERSION, REPORT_SCHEMA_VERSION))
    verb = frame.get("verb")
    if not isinstance(verb, str) or not verb:
        raise ProtocolError("request is missing a verb")
    payload = frame.get("payload", {})
    if not isinstance(payload, dict):
        raise ProtocolError("payload must be a JSON object")
    return frame.get("id"), verb, payload
