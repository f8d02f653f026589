"""Distributed-fleet smoke test for ``repro serve --workers 0``, driven
by check.sh.

Boots a dispatch-only broker plus two real ``repro worker`` daemons as
subprocesses, SIGKILLs one mid-lease, and requires the fleet to
converge on results **bit-identical** to a serial in-process server:

1. run the reference grid on a plain single-worker server and record
   the raw response bytes per job;
2. start ``python -m repro serve --workers 0`` on an ephemeral port with a
   short lease TTL and worker-liveness horizon; ``/readyz`` must be
   503 while no worker is registered;
3. start worker A (inline execution), wait until ``/metrics`` shows an
   active lease, and SIGKILL it — the abandoned jobs must requeue via
   lease expiry once the broker expels the silent worker;
4. start worker B (process-pool execution, ``--jobs 2``) and wait for
   every job; each raw response byte string must equal the serial
   reference;
5. require ``fleet_lease_expiries_total >= 1`` and
   ``fleet_jobs_redispatched_total >= 1``, zero active leases, no new
   ``/dev/shm/repro_*`` segments (worker B's pool hands traces over
   its pipes and makes none), SIGTERM worker B, then SIGTERM the
   broker and require exit code 0.

Exit code 0 means every step passed.  Run directly::

    PYTHONPATH=src python scripts/fleet_smoke.py
"""

import glob
import os
import re
import signal
import subprocess
import sys
import tempfile
import time

from repro.runner import RunnerConfig
from repro.service import ServiceConfig, ThreadedServer
from repro.service.client import ServiceClient

#: The grid: one spec per thread count, all shard-distinct spec_keys.
THREAD_COUNTS = (2, 4, 8, 16)


def submit_kwargs(threads):
    return dict(
        workload="BFS",
        scale="tiny",
        modes=["baseline", "graphpim"],
        threads=threads,
    )


def fail(message):
    print(f"fleet smoke FAILED: {message}", file=sys.stderr)
    return 1


def shm_segments():
    return set(glob.glob("/dev/shm/repro_*"))


def serial_reference(tmp):
    """Raw response bytes per job_id from a non-fleet server."""
    config = ServiceConfig(
        port=0,
        workers=1,
        runner=RunnerConfig(cache_dir=os.path.join(tmp, "serial-cache")),
    )
    reference = {}
    with ThreadedServer(config) as server:
        client = ServiceClient(f"http://127.0.0.1:{server.port}")
        for threads in THREAD_COUNTS:
            status = client.submit_and_wait(
                timeout_s=300, **submit_kwargs(threads)
            )
            if status.status != "done":
                raise RuntimeError(
                    f"serial reference job failed: {status.status}"
                )
            reference[status.job_id] = status.raw
    print(f"fleet smoke: serial reference = {len(reference)} job(s)")
    return reference


def start_worker(url, tmp, worker_id, extra=()):
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker",
            "--url", url,
            "--id", worker_id,
            "--capacity", "8",
            "--poll-interval", "0.05",
            "--cache-dir", os.path.join(tmp, f"{worker_id}-cache"),
            *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def metric_value(metrics, name):
    match = re.search(rf"^{re.escape(name)} (\S+)$", metrics, re.M)
    return float(match.group(1)) if match else None


def main():
    baseline_shm = shm_segments()
    with tempfile.TemporaryDirectory(prefix="repro-fleet-smoke-") as tmp:
        reference = serial_reference(tmp)
        broker = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--workers", "0",
                "--lease-ttl", "2",
                "--worker-timeout", "5",
                "--cache-dir", os.path.join(tmp, "broker-cache"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        children = [broker]
        try:
            return drive(broker, tmp, reference, baseline_shm, children)
        finally:
            for process in children:
                if process.poll() is None:
                    process.kill()
                process.wait(timeout=10)


def drive(broker, tmp, reference, baseline_shm, children):
    line = broker.stdout.readline()
    match = re.search(r"listening on http://([\d.]+):(\d+)", line)
    if not match:
        return fail(f"unexpected announce line: {line!r}")
    url = f"http://{match.group(1)}:{int(match.group(2))}"
    client = ServiceClient(url, client_id="fleet-smoke")

    # 2. dispatch-only broker: alive but not ready until a worker joins
    deadline = time.monotonic() + 30
    while client.health().get("status") != "ok":
        if time.monotonic() > deadline:
            return fail("broker never answered /healthz")
        time.sleep(0.1)
    if client.ready():
        return fail("/readyz was 200 with zero registered workers")
    print(f"fleet smoke: broker on {url}, degraded until a worker joins")

    # 3. worker A leases the whole grid, then dies without a word
    doomed = start_worker(url, tmp, "w-doomed")
    children.append(doomed)
    tickets = [
        client.submit(**submit_kwargs(threads))
        for threads in THREAD_COUNTS
    ]
    if set(t.job_id for t in tickets) != set(reference):
        return fail("fleet job_ids diverge from serial spec_keys")
    deadline = time.monotonic() + 60
    while True:
        leases = metric_value(client.metrics_text(), "fleet_leases_active")
        if leases:
            break
        if doomed.poll() is not None:
            return fail("worker A exited before leasing anything")
        if time.monotonic() > deadline:
            return fail("worker A never leased a job")
        time.sleep(0.03)
    doomed.send_signal(signal.SIGKILL)
    doomed.wait(timeout=10)
    print(f"fleet smoke: SIGKILLed worker A holding {leases:g} lease(s)")

    # 4. worker B inherits the shard after expiry and finishes the grid
    survivor = start_worker(url, tmp, "w-survivor", extra=("--jobs", "2"))
    children.append(survivor)
    for ticket in tickets:
        status = client.wait(ticket.job_id, timeout_s=300)
        if status.status != "done":
            return fail(
                f"job {ticket.job_id[:12]} ended {status.status}: "
                f"{status.error}"
            )
        if status.raw != reference[ticket.job_id]:
            return fail(
                f"job {ticket.job_id[:12]} bytes diverge from serial"
            )
    print(
        f"fleet smoke: {len(tickets)} job(s) bit-identical to the "
        "serial reference after redispatch"
    )

    # 5. failure accounting, leak checks, clean shutdown
    metrics = client.metrics_text()
    expiries = metric_value(metrics, "fleet_lease_expiries_total")
    redispatched = metric_value(metrics, "fleet_jobs_redispatched_total")
    if not expiries or not redispatched:
        return fail(
            f"no expiry recorded (expiries={expiries}, "
            f"redispatched={redispatched})"
        )
    if metric_value(metrics, "fleet_leases_active") != 0:
        return fail("leases still active after the grid completed")
    leaked = shm_segments() - baseline_shm
    if leaked:
        return fail(f"leaked shm segments: {sorted(leaked)}")
    print(
        f"fleet smoke: expiries={expiries:g} "
        f"redispatched={redispatched:g}, no leaked shm segments"
    )

    survivor.send_signal(signal.SIGTERM)
    try:
        if survivor.wait(timeout=60) != 0:
            return fail("worker B exited non-zero after SIGTERM")
    except subprocess.TimeoutExpired:
        return fail("worker B did not exit within 60s of SIGTERM")
    broker.send_signal(signal.SIGTERM)
    try:
        code = broker.wait(timeout=60)
    except subprocess.TimeoutExpired:
        return fail("broker did not exit within 60s of SIGTERM")
    if code != 0:
        print(broker.stdout.read(), file=sys.stderr)
        return fail(f"broker exited {code} after SIGTERM")
    print("fleet smoke: SIGTERM drain exited 0")
    return 0


if __name__ == "__main__":
    sys.exit(main())
