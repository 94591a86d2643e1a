"""A ``jrpm serve --jobs 2 --no-cache`` daemon under a closed-loop load
of ``run`` requests, spoken over the line-delimited JSON protocol."""

import itertools
import os
import socket
import subprocess
import sys
import time

import common

#: requests per pipelined group: one per daemon worker (``--jobs``)
DEPTH = 2


class Daemon:
    """One daemon process and one client connection to it."""

    def __init__(self, workdir, profdb=False):
        # A relative socket path keeps clear of the 108-byte AF_UNIX
        # limit wherever the checkout lives; both sides run in ROOT.
        self.socket_path = os.path.relpath(
            os.path.join(workdir, "d.sock"), common.ROOT)
        command = [sys.executable, "-m", "repro", "serve",
                   "--socket", self.socket_path, "--jobs", str(DEPTH),
                   "--no-cache"]
        if profdb:
            command += ["--profdb", os.path.join(workdir, "profdb.json")]
        self.log_path = os.path.join(workdir, "daemon.log")
        env = dict(os.environ, PYTHONPATH=common.SRC)
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(command, cwd=common.ROOT,
                                            env=env, stdout=log,
                                            stderr=subprocess.STDOUT)
        self._sock = None
        self._file = None
        self._ids = 0

    def connect(self, timeout=60.0):
        """Wait until the daemon accepts a connection."""
        deadline = time.monotonic() + timeout
        while True:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(self.socket_path)
                break
            except OSError:
                sock.close()
                if self.process.poll() is not None \
                        or time.monotonic() > deadline:
                    raise RuntimeError("daemon did not come up; log:\n"
                                       + self._log_tail())
                time.sleep(0.01)
        sock.settimeout(150.0)
        self._sock = sock
        self._file = sock.makefile("rb")

    def _send(self, requests):
        """Write ``[(verb, payload), ...]`` in one pipelined burst;
        returns their request ids."""
        from repro.service import protocol
        ids, burst = [], b""
        for verb, payload in requests:
            self._ids += 1
            ids.append("r%d" % self._ids)
            burst += protocol.encode_frame(
                protocol.make_request(ids[-1], verb, payload))
        self._sock.sendall(burst)
        return ids

    def _receive(self):
        from repro.service import protocol
        line = self._file.readline()
        if not line:
            raise RuntimeError("daemon closed the connection; log:\n"
                               + self._log_tail())
        return protocol.decode_frame(line), len(line)

    def request(self, verb, payload=None):
        """One control round trip; returns the result dict."""
        self._send([(verb, payload)])
        frame, _ = self._receive()
        if not frame.get("ok"):
            raise RuntimeError("%s failed: %s" % (verb, frame.get("error")))
        return frame["result"]

    def stream(self, items, on_reply):
        """Closed loop over ``(tag, workload)`` items in groups of
        :data:`DEPTH`: a group goes out as one pipelined write (as
        ``JrpmClient.request_many`` does), so the daemon can batch it,
        and the next group once all its replies are in.  Then
        ``on_reply(tag, name, slot, sent, done, frame, size,
        calibration)`` runs per reply, ``slot`` being its place in the
        group and ``calibration`` a :func:`common.calibrate_each_cpu`
        sample taken just before the group went out."""
        items = iter(items)
        while True:
            group = list(itertools.islice(items, DEPTH))
            if not group:
                return
            calibration = common.calibrate_each_cpu()
            sent = time.perf_counter()
            ids = self._send([("run", {"workload": name,
                                       "size": common.SIZE})
                              for _, name in group])
            pending = {request_id: (tag, name, slot) for slot, (request_id,
                       (tag, name)) in enumerate(zip(ids, group))}
            replies = []
            while pending:
                frame, size = self._receive()
                done = time.perf_counter()
                tag, name, slot = pending.pop(frame.get("id"))
                replies.append((tag, name, slot, sent, done, frame, size,
                                calibration))
            for reply in replies:
                on_reply(*reply)

    def metrics(self):
        """The daemon's metrics registry (``metrics`` verb, JSON form)."""
        return self.request("metrics", {"format": "json"})["metrics"]

    def close(self):
        """Drain the daemon and wait for it (and its workers) to exit."""
        try:
            if self._sock is not None and self.process.poll() is None:
                self.request("drain")
            else:
                self.process.terminate()   # never connected: no drain
            self.process.wait(timeout=60)
        except (OSError, RuntimeError, subprocess.TimeoutExpired):
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        finally:
            if self._sock is not None:
                self._file.close()
                self._sock.close()

    def _log_tail(self):
        with open(self.log_path, "rb") as fh:
            return fh.read()[-2000:].decode("utf-8", "replace")


def counter(snapshot, family, **labels):
    """Summed value of *family*'s series matching *labels* in a
    ``MetricsRegistry.to_dict`` snapshot (0 when absent)."""
    payload = snapshot["families"].get(family)
    if payload is None:
        return 0.0
    total = 0.0
    for joined, child in payload["series"].items():
        values = dict(zip(payload["labels"],
                          joined.split("\t") if joined else ()))
        if all(values.get(key) == value for key, value in labels.items()):
            total += child["value"]
    return total
