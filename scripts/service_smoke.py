"""End-to-end smoke test for ``repro serve``, driven by check.sh.

Boots the real service as a subprocess on an ephemeral port, exercises
the full serving contract once, and checks the SIGTERM drain promise:

1. start ``python -m repro serve --port 0`` and parse the announce
   line for the bound port;
2. wait for ``/readyz``;
3. submit one tiny job through the typed client and poll it to
   completion;
4. resubmit the identical spec and require it answered in one round
   trip: done, with no ``GET /v1/jobs/{id}`` (that route's count on
   ``/metrics`` does not move), and bit-identical to a plain GET;
5. submit the same workload under other modes, a new job whose trace
   comes from the server's trace memo (``service_trace_reuses_total``
   reads 1);
6. scrape ``/metrics``, require the service metric families, and
   require that the client's calls shared connections (fewer
   connections than requests);
7. send SIGTERM while the client's connection sits idle, and require
   exit code 0 within the drain window and no traceback in the
   server's output;
8. require an empty queue journal — a clean drain leaves no
   ``service_queue.jsonl`` behind.

Exit code 0 means every step passed.  Run directly::

    PYTHONPATH=src python scripts/service_smoke.py
"""

import os
import re
import signal
import subprocess
import sys
import tempfile
import time

from repro.service import QUEUE_CHECKPOINT_FILENAME
from repro.service.client import ServiceClient


def fail(message):
    print(f"service smoke FAILED: {message}", file=sys.stderr)
    return 1


def metric_total(metrics, name, label=""):
    """The sum of every series of one family in Prometheus text, or of
    those whose labels hold ``label``."""
    return sum(
        float(line.rsplit(" ", 1)[1])
        for line in metrics.splitlines()
        if line.startswith((name + "{", name + " ")) and label in line
    )


def job_fetches(client):
    """How many ``GET /v1/jobs/{id}`` requests the server has answered."""
    return metric_total(
        client.metrics_text(), "service_requests_total",
        'route="/v1/jobs/{id}"',
    )


def main():
    with tempfile.TemporaryDirectory(prefix="repro-svc-smoke-") as tmp:
        cache_dir = os.path.join(tmp, "cache")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--workers", "1",
                "--cache-dir", cache_dir,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            return drive(process, cache_dir)
        finally:
            if process.poll() is None:
                process.kill()
            process.wait(timeout=10)


def drive(process, cache_dir):
    # 1. the announce line carries the ephemeral port
    line = process.stdout.readline()
    match = re.search(r"listening on http://([\d.]+):(\d+)", line)
    if not match:
        return fail(f"unexpected announce line: {line!r}")
    host, port = match.group(1), int(match.group(2))
    client = ServiceClient(f"http://{host}:{port}", client_id="smoke")

    # 2. readiness
    deadline = time.monotonic() + 30
    while not client.ready():
        if time.monotonic() > deadline:
            return fail("service never became ready")
        time.sleep(0.1)
    print(f"service smoke: ready on port {port}")

    # 3. one tiny job, submitted and polled to completion
    status = client.submit_and_wait(
        timeout_s=240,
        workload="BFS",
        scale="tiny",
        modes=["baseline", "graphpim"],
    )
    results = status.results
    if set(results) != {"Baseline", "GraphPIM"}:
        return fail(f"unexpected result modes: {sorted(results)}")
    cycles = results["GraphPIM"]["cycles"]
    print(f"service smoke: job done (GraphPIM {cycles:.0f} cycles)")

    # 4. identical resubmission answers in one trip, bit-identically
    fetches = job_fetches(client)
    again = client.submit(
        workload="BFS", scale="tiny", modes=["baseline", "graphpim"]
    )
    if not again.done or again.outcome != "duplicate":
        return fail(f"resubmission not answered from memory: {again}")
    answered = client.status(again.job_id).raw
    if job_fetches(client) != fetches:
        return fail("the resubmission's result was fetched with a GET")
    # A new client keeps no document, so its status is a plain GET.
    plain = ServiceClient(f"http://{host}:{port}")
    try:
        fetched = plain.status(again.job_id).raw
    finally:
        plain.close()
    if job_fetches(client) != fetches + 1:
        return fail("a new client's status did not GET the job")
    if not answered == fetched == status.raw:
        return fail("resubmitted response bytes differ")
    print(
        "service smoke: duplicate answered in one trip, bit-identically"
    )

    # 5. the same workload under other modes reuses the kept trace
    other = client.submit_and_wait(
        timeout_s=240, workload="BFS", scale="tiny", modes=["upei"]
    )
    if other.body["trace_hash"] != status.body["trace_hash"]:
        return fail("the same workload traced to another digest")
    reuses = metric_total(client.metrics_text(), "service_trace_reuses_total")
    if reuses != 1:
        return fail(f"service_trace_reuses_total reads {reuses:g}, not 1")
    print("service smoke: a second job of BFS reused its trace")

    # 6. metrics exposition
    metrics = client.metrics_text()
    for family in (
        "service_queue_depth",
        "service_jobs_total",
        "service_coalesced_hits_total",
        "service_rejected_total",
        "service_request_seconds_bucket",
    ):
        if family not in metrics:
            return fail(f"/metrics is missing {family}")
    print("service smoke: /metrics exposes the service families")
    requests = metric_total(metrics, "service_requests_total")
    connections = metric_total(metrics, "service_connections_total")
    if not 0 < connections < requests:
        return fail(
            f"{connections:g} connection(s) for {requests:g} request(s): "
            f"the client's calls did not share connections"
        )
    print(
        f"service smoke: {requests:g} requests over "
        f"{connections:g} connection(s)"
    )

    # 7. SIGTERM, with the client's connection idle, drains and exits 0
    process.send_signal(signal.SIGTERM)
    try:
        output, _ = process.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        return fail("service did not exit within 60s of SIGTERM")
    if process.returncode != 0:
        print(output, file=sys.stderr)
        return fail(f"service exited {process.returncode} after SIGTERM")
    if "Traceback" in output:
        print(output, file=sys.stderr)
        return fail("the server printed a traceback")

    # 8. a clean drain leaves no queue journal
    journal = os.path.join(cache_dir, QUEUE_CHECKPOINT_FILENAME)
    if os.path.exists(journal) and os.path.getsize(journal):
        return fail(f"drain left a non-empty queue journal: {journal}")
    print("service smoke: SIGTERM drain exited 0, queue journal empty")
    return 0


if __name__ == "__main__":
    sys.exit(main())
