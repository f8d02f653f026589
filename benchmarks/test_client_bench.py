"""Service client: what one served hit costs through ``ServiceClient``.

A hit is what perfbench's ``served`` client does for 99% of its stream:
``submit`` a spec the service has already answered, then ``status`` for
its result body.  The server answers such a submission with the job
document itself (200, ``Content-Location: /v1/jobs/{id}``), so the
client sends one request, ``POST /v1/jobs``, and answers ``status``
from the document it kept.  Against one warm :class:`ThreadedServer`
this benchmark times hits through :class:`ServiceClient`, and, as the
reference, the same request, byte for byte, through a kept-alive
:class:`http.client.HTTPConnection`, the transport the client used
before its own socket transport.  That oracle lives only here.  Before
timing, both send one hit to a scripted socket server that answers with
``Content-Location``, and the bytes they sent must be equal.

Beside it the benchmark records the hit as it was before one-trip
answers: the submission and then ``GET /v1/jobs/{id}``, replayed through
``http.client``.  The server now answers that submission with the
document too (2.2 KiB here), where it used to send a ticket of about
200 bytes, so the replay reads about 2 KiB more than the old hit did.
That figure is recorded, not guarded.

The server runs in this process, so a hit's wall time covers the
server's handling as well as the client's, though only the client side
differs between the transports.  The calling thread's CPU time per hit
is the client's share alone (the server thread's CPU is not in it), and
the guard is on that: the *ratio* of the two transports' client CPU per
one-trip hit, so absolute machine speed cancels.  The wall-time ratio
is recorded beside it but not guarded: on a loaded machine the wait for
a CPU can swamp it (0.95x in one run of three parallel copies on two
vCPUs when a hit was two trips).  Run as three parallel copies, the
one-trip hit read 1.19-1.30x in wall time (six runs) and 1.31-1.60x in
client CPU (nine runs), against 1.25-1.28x and 1.31-1.38x alone.  Every
figure is the best of ``ROUNDS`` rounds of ``HITS`` hits, the three
ways alternating round by round.

Regenerate the committed record with::

    REPRO_WRITE_BENCH=1 python -m pytest benchmarks/test_client_bench.py
"""

import http.client
import json
import os
import time
from pathlib import Path

from repro.runner import RunnerConfig, spec_key
from repro.service import ServiceConfig, ThreadedServer
from repro.service.client import ServiceClient
from tests.test_service import ScriptedServer, make_spec, one_trip

#: Required ratio of the client CPU a hit costs through ``http.client``
#: to what it costs through ``ServiceClient`` (recorded: see
#: ``BENCH_client.json``).
MIN_CPU_SPEEDUP = 1.12

#: Hits per timed round, and rounds per way of sending one.
HITS = 50
ROUNDS = 15

_BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_client.json"


def _parse(request: bytes):
    """``(method, path, headers, body)`` of one request's bytes."""
    head, _, body = request.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    method, path, _version = lines[0].split(" ")
    headers = [line.split(": ", 1) for line in lines[1:]]
    return method, path, headers, body


def _replay(conn: http.client.HTTPConnection, requests, authority: str):
    """Send ``requests`` over ``conn`` as they were captured, with
    ``Host`` set to ``authority``; returns ``(status, body)`` of each."""
    answers = []
    for method, path, headers, body in requests:
        conn.putrequest(method, path, skip_host=True,
                        skip_accept_encoding=True)
        for name, value in headers:
            conn.putheader(name, authority if name == "Host" else value)
        conn.endheaders(body or None)
        response = conn.getresponse()
        answers.append((response.status, response.read()))
    return answers


def _captured_hits(spec, job_id: str):
    """As a scripted server received them: the one-trip hit
    ``ServiceClient`` sends, the same hit replayed by ``http.client``,
    and the parsed requests of the old two-trip hit (the submission,
    then the ``GET`` a client without the document sends)."""
    document = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}"
    server = ScriptedServer([one_trip(job_id)], [document], [one_trip(job_id)])
    with server:
        authority = f"127.0.0.1:{server.port}"
        client = ServiceClient(f"http://{authority}")
        fetcher = ServiceClient(f"http://{authority}")
        try:
            client.status(client.submit(spec=spec).job_id)
            fetcher.status(job_id)
        finally:
            client.close()
            fetcher.close()
        ours = _parse(server.requests[0])
        conn = http.client.HTTPConnection("127.0.0.1", server.port)
        try:
            _replay(conn, [ours], authority)
        finally:
            conn.close()
    return (
        server.requests[:1],
        server.requests[2:],
        [ours, _parse(server.requests[1])],
    )


def _per_hit(hit) -> "tuple[float, float]":
    """Wall and calling-thread CPU seconds per hit over one round."""
    wall, cpu = time.perf_counter(), time.thread_time()
    for _ in range(HITS):
        hit()
    return (
        (time.perf_counter() - wall) / HITS,
        (time.thread_time() - cpu) / HITS,
    )


def test_client_hit_round_trip(tmp_path):
    spec = make_spec()
    job_id = spec_key(spec)
    client_bytes, oracle_bytes, two_trip = _captured_hits(spec, job_id)
    assert oracle_bytes == client_bytes, "the two transports sent other bytes"
    assert [request[:2] for request in two_trip] == [
        ("POST", "/v1/jobs"), ("GET", f"/v1/jobs/{job_id}"),
    ]

    config = ServiceConfig(
        port=0, workers=1,
        runner=RunnerConfig(cache_dir=str(tmp_path / "cache")),
    )
    with ThreadedServer(config) as server:
        authority = f"127.0.0.1:{server.port}"
        client = ServiceClient(f"http://{authority}")
        conn = http.client.HTTPConnection("127.0.0.1", server.port)
        try:
            client.submit_and_wait(spec=spec, timeout_s=120)  # warm hit

            def client_hit():
                ticket = client.submit(spec=spec)
                assert ticket.outcome == "duplicate"
                return client.status(ticket.job_id).raw

            def oracle_hit():
                ((code, raw),) = _replay(conn, two_trip[:1], authority)
                assert code == 200
                return raw

            def two_trip_hit():
                (submitted, _), (code, raw) = _replay(
                    conn, two_trip, authority
                )
                assert submitted == 200 and code == 200
                return raw

            assert client_hit() == oracle_hit() == two_trip_hit()
            ours = [float("inf")] * 2
            oracle = [float("inf")] * 2
            old = [float("inf")] * 2
            for _ in range(ROUNDS):
                ours = list(map(min, ours, _per_hit(client_hit)))
                oracle = list(map(min, oracle, _per_hit(oracle_hit)))
                old = list(map(min, old, _per_hit(two_trip_hit)))
        finally:
            client.close()
            conn.close()

    record = {
        "hits_per_round": HITS,
        "rounds": ROUNDS,
        "client_us_per_hit": round(ours[0] * 1e6, 1),
        "http_client_us_per_hit": round(oracle[0] * 1e6, 1),
        "speedup": round(oracle[0] / ours[0], 2),
        "client_cpu_us_per_hit": round(ours[1] * 1e6, 1),
        "http_client_cpu_us_per_hit": round(oracle[1] * 1e6, 1),
        "cpu_speedup": round(oracle[1] / ours[1], 2),
        "two_trip_http_client_us_per_hit": round(old[0] * 1e6, 1),
        "two_trip_http_client_cpu_us_per_hit": round(old[1] * 1e6, 1),
        "one_trip_speedup": round(old[0] / ours[0], 2),
        "one_trip_cpu_speedup": round(old[1] / ours[1], 2),
    }
    print()
    print(
        f"  hit wall: ServiceClient {record['client_us_per_hit']} us, "
        f"http.client {record['http_client_us_per_hit']} us, "
        f"{record['speedup']}x; two trips through http.client "
        f"{record['two_trip_http_client_us_per_hit']} us, "
        f"{record['one_trip_speedup']}x"
    )
    print(
        f"  hit client CPU: ServiceClient "
        f"{record['client_cpu_us_per_hit']} us, http.client "
        f"{record['http_client_cpu_us_per_hit']} us, "
        f"{record['cpu_speedup']}x; two trips through http.client "
        f"{record['two_trip_http_client_cpu_us_per_hit']} us, "
        f"{record['one_trip_cpu_speedup']}x"
    )
    if os.environ.get("REPRO_WRITE_BENCH"):
        _BENCH_FILE.write_text(json.dumps(record, indent=2) + "\n")
        print(f"  wrote {_BENCH_FILE.name}")
    assert record["cpu_speedup"] >= MIN_CPU_SPEEDUP, (
        f"a hit costs the client only {record['cpu_speedup']}x less CPU "
        f"than through http.client (floor {MIN_CPU_SPEEDUP}x)"
    )
