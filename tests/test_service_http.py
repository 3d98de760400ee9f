"""The HTTP daemon: routing, keep-alive, concurrent clients, smoke parity."""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import socket
import threading

import pytest

from repro.repository import MemoryStore, ModelRepository
from repro.service import (
    ModelHost,
    ServiceClient,
    ServiceClientError,
    XpdlHttpServer,
)

CPU = (
    "<cpu name='SynthCpu'>"
    "<group prefix='core' quantity='4'>"
    "<core frequency='2' frequency_unit='GHz'/>"
    "</group>"
    "</cpu>"
)
SYSTEM = (
    "<system id='SynthSys'><node>"
    "<cpu id='PE0' type='SynthCpu'/>"
    "</node></system>"
)


@pytest.fixture(scope="module")
def service():
    """One daemon on an ephemeral port, shared by the module's tests."""
    store = MemoryStore({"cpu.xpdl": CPU, "sys.xpdl": SYSTEM})
    host = ModelHost(ModelRepository([store]), reload_ttl_s=60.0)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    server = XpdlHttpServer(host, port=0, workers=4)
    address, port = asyncio.run_coroutine_threadsafe(
        server.start(), loop
    ).result(timeout=30)
    try:
        yield ServiceClient(address, port), host, (address, port), store
    finally:
        asyncio.run_coroutine_threadsafe(server.close(), loop).result(
            timeout=30
        )
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30)
        loop.close()


class TestRouting:
    def test_health(self, service):
        client, _, _, _ = service
        assert client.health() == {"ok": True}

    def test_query_get_and_post_agree(self, service):
        client, _, _, _ = service
        via_post = client.query("SynthSys", "//core")
        via_get = client.get("/query", model="SynthSys", path="//core")
        assert via_post == via_get
        assert via_post["count"] == 4

    def test_info_and_analysis(self, service):
        client, _, _, _ = service
        assert client.info("SynthSys")["cores"] == 4
        ana = client.analysis("SynthSys", ["count_kind:core"])
        assert ana["results"]["count_kind:core"] == 4

    def test_doctor_and_compose(self, service):
        client, _, _, _ = service
        report = client.doctor(["SynthSys"])
        assert "findings" in report and "summary" in report
        comp = client.compose("SynthSys")
        assert comp["elements"] > 4

    def test_models_listing(self, service):
        client, _, _, _ = service
        idents = [m["identifier"] for m in client.models()["models"]]
        assert "SynthSys" in idents

    def test_batch_round_trip(self, service):
        client, _, _, _ = service
        body = client.batch(
            [
                {"op": "query", "model": "SynthSys", "path": "//core"},
                {"op": "info", "model": "SynthSys"},
                {"op": "query", "model": "nope", "path": "//x"},
            ]
        )
        assert body["count"] == 3
        assert body["results"][0]["count"] == 4
        assert body["results"][1]["cores"] == 4
        assert body["results"][2]["status"] == 404

    def test_stats_counts_requests(self, service):
        client, _, _, _ = service
        before = client.stats()["observer"]["counters"].get(
            "service.requests", 0
        )
        client.query("SynthSys", "//core")
        after = client.stats()["observer"]["counters"]["service.requests"]
        assert after >= before + 2  # the query plus the first stats call

    def test_unknown_model_raises_with_status(self, service):
        client, _, _, _ = service
        with pytest.raises(ServiceClientError) as exc_info:
            client.query("nope", "//x")
        assert exc_info.value.status == 404

    def test_unknown_path_is_404(self, service):
        client, _, _, _ = service
        with pytest.raises(ServiceClientError) as exc_info:
            client.get("/nope")
        assert exc_info.value.status == 404

    def test_wrong_shaped_request_is_500_not_a_dropped_connection(self, service):
        client, _, _, _ = service
        with pytest.raises(ServiceClientError) as exc_info:
            client.post("/analysis", {"model": "SynthSys", "analyses": 5})
        assert exc_info.value.status == 500
        assert exc_info.value.body == {
            "error": "internal error: TypeError",
            "status": 500,
        }
        body = client.batch(
            [{"op": "query", "model": "SynthSys", "path": 5}, {"op": "health"}]
        )
        assert body["results"][0]["status"] == 500
        assert body["results"][1]["ok"] is True
        assert client.stats()["observer"]["counters"]["service.internal_errors"] >= 2

    def test_bad_json_body_is_400(self, service):
        client, _, addr, _ = service
        import urllib.request

        req = urllib.request.Request(
            client.base_url + "/query",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(req, timeout=10)
        assert exc_info.value.code == 400


class TestWireProtocol:
    def _raw(self, addr, payload: bytes) -> bytes:
        with socket.create_connection(addr, timeout=10) as sock:
            sock.sendall(payload)
            sock.shutdown(socket.SHUT_WR)
            chunks = []
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                chunks.append(data)
        return b"".join(chunks)

    def test_keep_alive_serves_two_requests_on_one_connection(self, service):
        _, _, addr, _ = service
        request = (
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
            b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        )
        raw = self._raw(addr, request)
        assert raw.count(b"HTTP/1.1 200 OK") == 2
        assert raw.count(b'{"ok": true}') == 2

    def test_malformed_request_line_is_400(self, service):
        _, _, addr, _ = service
        raw = self._raw(addr, b"BOGUS\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 400 ")

    def test_oversized_body_is_rejected(self, service):
        _, _, addr, _ = service
        head = (
            b"POST /query HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 99999999999\r\n\r\n"
        )
        raw = self._raw(addr, head)
        assert raw.startswith(b"HTTP/1.1 400 ")

    def test_method_not_allowed(self, service):
        _, _, addr, _ = service
        raw = self._raw(addr, b"PUT /query HTTP/1.1\r\nHost: x\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 405 ")


class TestConcurrentClients:
    def test_many_clients_hammering_while_descriptor_changes(self, service):
        client, host, addr, store = service
        valid = {4, 8}
        failures: list[str] = []

        def hammer(_i: int) -> None:
            local = ServiceClient(*addr)
            for _ in range(15):
                body = local.query("SynthSys", "//core")
                if body["count"] not in valid:
                    failures.append(f"torn count {body['count']}")
                    return

        # flush the TTL so edits are probed per request during the hammer
        host.reload_ttl_s = 0.0
        try:
            with concurrent.futures.ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(hammer, i) for i in range(8)]
                store.put("cpu.xpdl", CPU.replace("'4'", "'8'"))
                for f in futures:
                    f.result(timeout=60)
        finally:
            host.reload_ttl_s = 60.0
            store.put("cpu.xpdl", CPU)
            host.session.invalidate()
        assert not failures, failures[:3]
        assert host.stats()["inflight"] == 0

    def test_responses_are_json_with_content_length(self, service):
        _, _, addr, _ = service
        with socket.create_connection(addr, timeout=10) as sock:
            sock.sendall(
                b"GET /stats HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
            )
            sock.shutdown(socket.SHUT_WR)
            chunks = []
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                chunks.append(data)
        raw = b"".join(chunks)
        head, _, body = raw.partition(b"\r\n\r\n")
        headers = dict(
            line.split(b": ", 1)
            for line in head.split(b"\r\n")[1:]
            if b": " in line
        )
        assert headers[b"Content-Type"] == b"application/json"
        assert int(headers[b"Content-Length"]) == len(body)
        json.loads(body)
