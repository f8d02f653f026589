"""Service client: what one served hit costs through ``ServiceClient``.

A hit is the two requests perfbench's ``served`` client makes for 99%
of its stream: ``POST /v1/jobs`` for a spec the service has already
answered, then ``GET /v1/jobs/{id}`` for its result body.  Against one
warm :class:`ThreadedServer` this benchmark times hits through
:class:`ServiceClient`, and, as the reference, the same two requests,
byte for byte, through a kept-alive :class:`http.client.HTTPConnection`,
the transport the client used before its own socket transport.  That
oracle lives only here.  Before timing, both send one hit to a scripted
socket server and the bytes they sent must be equal.

The server runs in this process, so a hit's wall time covers the
server's handling as well as the client's, though only the client side
differs between the two.  The calling thread's CPU time per hit is the
client's share alone (the server thread's CPU is not in it), and the
guard is on that: the *ratio* of the two transports' client CPU per
hit, so absolute machine speed cancels.  The wall-time ratio is
recorded beside it but not guarded: on a loaded machine the wait for a
CPU swamped it (0.95x in one run of three parallel copies on two
vCPUs, against 1.16-1.18x alone), while the CPU ratio held at
1.26-1.44x.  Every figure is the best of ``ROUNDS`` rounds of ``HITS``
hits, the two transports alternating round by round.

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
from tests.test_service import ScriptedServer, make_spec

#: Required ratio of the client CPU a hit costs through ``http.client``
#: to what it costs through ``ServiceClient`` (recorded: see
#: ``BENCH_client.json``).
MIN_CPU_SPEEDUP = 1.12

#: Hits per timed round, and rounds per transport.
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


def _oracle_hit(conn: http.client.HTTPConnection, requests, authority: str):
    """Send ``requests`` over ``conn`` as they were captured, with
    ``Host`` set to ``authority``; returns the response bodies."""
    bodies = []
    for method, path, headers, body in requests:
        conn.putrequest(method, path, skip_host=True,
                        skip_accept_encoding=True)
        for name, value in headers:
            conn.putheader(name, authority if name == "Host" else value)
        conn.endheaders(body or None)
        response = conn.getresponse()
        bodies.append((response.status, response.read()))
    return bodies


def _captured_hits(spec, job_id: str):
    """One hit's requests from each transport, as a server received them."""
    ticket = json.dumps(
        {"job_id": job_id, "status": "done", "outcome": "duplicate"}
    ).encode()
    answers = [
        b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s"
        % (len(ticket), ticket),
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}",
    ]
    server = ScriptedServer(answers, answers)
    with server:
        authority = f"127.0.0.1:{server.port}"
        client = ServiceClient(f"http://{authority}")
        try:
            client.status(client.submit(spec=spec).job_id)
        finally:
            client.close()
        ours = [_parse(request) for request in server.requests]
        conn = http.client.HTTPConnection("127.0.0.1", server.port)
        try:
            _oracle_hit(conn, ours, authority)
        finally:
            conn.close()
    return server.requests[:2], server.requests[2:], ours


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
    client_bytes, oracle_bytes, requests = _captured_hits(spec, job_id)
    assert oracle_bytes == client_bytes, "the two transports sent other bytes"

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
                (submitted, _), (code, raw) = _oracle_hit(
                    conn, requests, authority
                )
                assert submitted == 200 and code == 200
                return raw

            assert client_hit() == oracle_hit()
            ours = [float("inf")] * 2
            oracle = [float("inf")] * 2
            for _ in range(ROUNDS):
                ours = list(map(min, ours, _per_hit(client_hit)))
                oracle = list(map(min, oracle, _per_hit(oracle_hit)))
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
    }
    print()
    print(
        f"  hit wall: ServiceClient {record['client_us_per_hit']} us, "
        f"http.client {record['http_client_us_per_hit']} us, "
        f"{record['speedup']}x"
    )
    print(
        f"  hit client CPU: ServiceClient "
        f"{record['client_cpu_us_per_hit']} us, http.client "
        f"{record['http_client_cpu_us_per_hit']} us, "
        f"{record['cpu_speedup']}x"
    )
    if os.environ.get("REPRO_WRITE_BENCH"):
        _BENCH_FILE.write_text(json.dumps(record, indent=2) + "\n")
        print(f"  wrote {_BENCH_FILE.name}")
    assert record["cpu_speedup"] >= MIN_CPU_SPEEDUP, (
        f"a hit costs the client only {record['cpu_speedup']}x less CPU "
        f"than through http.client (floor {MIN_CPU_SPEEDUP}x)"
    )
