#!/usr/bin/env python3
"""Smoke test for the psn_serve binary: pipe a canned NDJSON session
through stdin and validate the responses.

The session exercises one request per family (forwarding, path, admin
stats), one request the validator rejects, and the shutdown command,
i.e. the full stdio protocol path: line parsing, validation and its
error envelope, engine execution, telemetry stamping, and the clean-exit
handshake. Intended for CI (one Release-job step) and local
checks after touching src/psn/serve/ — it finishes in a couple of
seconds on the conference_small scenario.

The harness streams responses with deadlines instead of one blocking
subprocess.run, so every child-failure mode is a loud nonzero exit
rather than a hang or a vacuous pass:
  * child dies mid-session (EOF before all responses): reports the exit
    status — including "killed by signal N" — and fails;
  * no response within the per-response deadline: kills the child and
    fails;
  * shutdown handshake: after the shutdown response the process must
    exit 0 within the handshake deadline, or it is killed and the run
    fails.

Usage:
  serve_smoke.py path/to/psn_serve

Exit status 0 = all responses valid and the child exited cleanly,
1 = protocol/validation failure, 2 = bad invocation or the binary
died / timed out / was killed.
"""

from __future__ import annotations

import json
import queue
import signal
import subprocess
import sys
import threading

REQUESTS = [
    {
        "id": "smoke-forwarding",
        "family": "forwarding",
        "scenario": "conference_small",
        "algorithms": ["Epidemic", "FRESH"],
        "runs": 2,
        "message_rate": 0.05,
    },
    {
        "id": "smoke-path",
        "family": "path",
        "scenario": "conference_small",
        "messages": 4,
        "k": 64,
    },
    {"id": "smoke-stats", "family": "admin", "command": "stats"},
    # "algorithm" is not a path-request field: rejected by validation.
    {
        "id": "smoke-invalid",
        "family": "path",
        "scenario": "conference_small",
        "algorithm": "Epidemic",
    },
    {"id": "smoke-shutdown", "family": "admin", "command": "shutdown"},
]

TELEMETRY_KEYS = (
    "cache_hit",
    "queue_depth_at_admission",
    "batch_size",
    "coalesced",
    "build_wall_seconds",
    "run_wall_seconds",
    "snapshot_wall_seconds",
    "latency_seconds",
)

# Generous for sanitizer builds; a healthy Release binary answers the
# whole session in seconds.
RESPONSE_DEADLINE_SECONDS = 120.0
SHUTDOWN_DEADLINE_SECONDS = 30.0


def fail(message):
    print(f"serve_smoke: FAIL: {message}")
    sys.exit(1)


def require(condition, message):
    if not condition:
        fail(message)


def describe_exit(returncode):
    if returncode is None:
        return "still running"
    if returncode < 0:
        try:
            name = signal.Signals(-returncode).name
        except ValueError:
            name = f"signal {-returncode}"
        return f"killed by {name}"
    return f"exited {returncode}"


class Child:
    """psn_serve with line-granular, deadline-bounded stdout reads."""

    def __init__(self, argv):
        self.proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.lines = queue.Queue()
        self.stderr_tail = []
        self._stdout_thread = threading.Thread(
            target=self._pump_stdout, daemon=True)
        self._stderr_thread = threading.Thread(
            target=self._pump_stderr, daemon=True)
        self._stdout_thread.start()
        self._stderr_thread.start()

    def _pump_stdout(self):
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)  # EOF sentinel.

    def _pump_stderr(self):
        # Drain continuously (a full pipe would deadlock the child); keep
        # a bounded tail for failure reports.
        for line in self.proc.stderr:
            self.stderr_tail.append(line.rstrip("\n"))
            del self.stderr_tail[:-50]

    def die(self, message):
        """Report a child-level failure, kill if needed, exit 2."""
        status = describe_exit(self.proc.poll())
        print(f"serve_smoke: {message} (child {status})")
        if self.stderr_tail:
            print("serve_smoke: last stderr lines:")
            for line in self.stderr_tail[-10:]:
                print(f"  {line}")
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        sys.exit(2)

    def next_response(self, context):
        """One JSON response line within the deadline, or a loud exit."""
        try:
            line = self.lines.get(timeout=RESPONSE_DEADLINE_SECONDS)
        except queue.Empty:
            self.die(f"no response within {RESPONSE_DEADLINE_SECONDS:.0f}s "
                     f"while waiting for {context}")
        if line is None:  # EOF: the child closed stdout mid-session.
            self.proc.wait()
            self.die(f"stdout closed before {context}")
        try:
            response = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"non-JSON line on stdout: {line!r} ({e})")
        # Periodic stats lines go to stderr, so everything on stdout must
        # be a response envelope.
        require("id" in response, f"response without id: {line!r}")
        return response

    def expect_clean_exit(self):
        """The shutdown handshake: exit 0 within the deadline."""
        try:
            returncode = self.proc.wait(timeout=SHUTDOWN_DEADLINE_SECONDS)
        except subprocess.TimeoutExpired:
            self.die("shutdown handshake timed out: no exit within "
                     f"{SHUTDOWN_DEADLINE_SECONDS:.0f}s of the shutdown "
                     "response")
        if returncode != 0:
            self.die("non-zero exit after shutdown response")
        self._stdout_thread.join(timeout=5)
        self._stderr_thread.join(timeout=5)


def validate_envelope(response):
    require(response.get("ok") is True,
            f"{response.get('id')}: ok != true ({response.get('error')})")
    telemetry = response.get("telemetry")
    require(isinstance(telemetry, dict),
            f"{response.get('id')}: missing telemetry object")
    for key in TELEMETRY_KEYS:
        require(key in telemetry,
                f"{response.get('id')}: telemetry missing '{key}'")
    require(telemetry["latency_seconds"] >= 0,
            f"{response.get('id')}: negative latency")


def main():
    if len(sys.argv) != 2:
        print(__doc__)
        sys.exit(2)
    try:
        child = Child([sys.argv[1]])
    except OSError as e:
        print(f"serve_smoke: cannot run {sys.argv[1]}: {e}")
        sys.exit(2)

    # Stream the whole session up front (the service batches internally),
    # then collect responses one by one under deadlines. A child that
    # dies on a request surfaces as EOF/exit-status, not a broken pipe
    # traceback.
    try:
        for request in REQUESTS:
            child.proc.stdin.write(json.dumps(request) + "\n")
        child.proc.stdin.flush()
        child.proc.stdin.close()
    except (BrokenPipeError, OSError):
        child.proc.wait()
        child.die("stdin pipe broke while sending the session")

    responses = {}
    for _ in REQUESTS:
        remaining = [r["id"] for r in REQUESTS if r["id"] not in responses]
        response = child.next_response(f"response(s) {', '.join(remaining)}")
        responses[response["id"]] = response

    for request in REQUESTS:
        require(request["id"] in responses,
                f"no response for {request['id']}")

    forwarding = responses["smoke-forwarding"]
    validate_envelope(forwarding)
    cells = forwarding["result"]["cells"]
    require(len(cells) == 2, f"expected 2 cells, got {len(cells)}")
    for cell, name in zip(cells, ("Epidemic", "FRESH")):
        require(cell["algorithm"] == name,
                f"cell order wrong: {cell['algorithm']} != {name}")
        require(0.0 <= cell["success_rate"] <= 1.0,
                f"{name}: success_rate {cell['success_rate']} out of range")
    require(cells[0]["success_rate"] >= cells[1]["success_rate"],
            "Epidemic (flooding upper bound) below FRESH")

    path = responses["smoke-path"]
    validate_envelope(path)
    require(path["result"]["messages"] == 4,
            f"path: expected 4 messages, got {path['result']['messages']}")
    require(len(path["result"]["records"]) == 4,
            "path: record count != messages")

    stats = responses["smoke-stats"]
    validate_envelope(stats)
    require(stats["result"]["requests"] >= 3,
            f"stats: requests {stats['result']['requests']} < 3")
    require(stats["result"]["cache"]["misses"] >= 1,
            "stats: no cache miss recorded for the first scenario build")

    invalid = responses["smoke-invalid"]
    require(invalid.get("ok") is False,
            f"smoke-invalid: expected ok == false, got {invalid!r}")
    require(isinstance(invalid.get("error"), str) and invalid["error"],
            f"smoke-invalid: missing error string in {invalid!r}")

    shutdown = responses["smoke-shutdown"]
    validate_envelope(shutdown)
    # The response is not the end of the handshake: the process itself
    # must now exit 0, promptly.
    child.expect_clean_exit()

    print(f"serve_smoke: OK ({len(responses)} responses, clean exit; "
          f"Epidemic success {cells[0]['success_rate']:.4f}, "
          f"FRESH success {cells[1]['success_rate']:.4f})")


if __name__ == "__main__":
    main()
