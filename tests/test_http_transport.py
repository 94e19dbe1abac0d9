"""The HTTP backend's own transport, against servers on 127.0.0.1 only: plain
and TLS posts, proxies (absolute-form targets and CONNECT tunnels), NO_PROXY,
.netrc credentials, gzip and deflate bodies, connection reuse and its bound,
and a server that drops its connections. The TLS server's self-signed
certificate is ``data/localhost-cert.pem`` (made with ``openssl req -x509``
for localhost and 127.0.0.1, valid until 2126)."""

from __future__ import annotations

import contextlib
import gzip
import json
import netrc
import select
import socket
import ssl
import sys
import threading
import time
import urllib.request
import zlib
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from higen import llm_client
from higen.errors import ConfigError, EndpointError, TransportError
from higen.llm_client import GenRequest, HTTPBackend, LLMClient, RetryPolicy, backend_from_url

from conftest import DATA_DIR

CERT, KEY = DATA_DIR / "localhost-cert.pem", DATA_DIR / "localhost-key.pem"
_CHAT_OK = {"choices": [{"message": {"content": "Summary: fine"}}], "usage": {"prompt_tokens": 7, "completion_tokens": 3}}
_REQUEST = GenRequest(model="m", user_prompt="p")
_ENCODERS = {
    "gzip": gzip.compress,
    "deflate": zlib.compress,
    "raw deflate": lambda data: zlib.compress(data)[2:-4],
}


class _Handler(BaseHTTPRequestHandler):
    """Answers every POST with ``_CHAT_OK``, encoded as the server's
    ``encoding`` says, after its ``delay`` and once its ``barrier`` (if any)
    is passed; records each request's target, headers and body, and each
    connection. When the server's ``drop`` is set, it closes the connection
    after answering, with no ``Connection: close``."""

    protocol_version = "HTTP/1.1"
    timeout = 10

    def log_message(self, format, *args):  # noqa: A002 - http.server API
        pass

    def setup(self):
        if self.server.context is not None:
            self.request = self.server.context.wrap_socket(self.request, server_side=True)
        super().setup()
        with self.server.lock:
            self.server.connections += 1
            self.server.open += 1
            self.server.most_open = max(self.server.most_open, self.server.open)

    def finish(self):
        with self.server.lock:
            self.server.open -= 1
        super().finish()
        if self.server.context is not None:
            self.request.close()

    def do_POST(self):  # noqa: N802 - http.server API
        body = self.rfile.read(int(self.headers["Content-Length"]))
        with self.server.lock:
            self.server.seen.append((self.path, dict(self.headers), body))
        time.sleep(self.server.delay)
        if self.server.barrier is not None:
            self.server.barrier.wait(timeout=10)
        body = json.dumps(_CHAT_OK).encode("utf-8")
        self.send_response(200)
        if self.server.encoding:
            body = _ENCODERS[self.server.encoding](body)
            self.send_header("Content-Encoding", self.server.encoding.split()[-1])
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self.close_connection = self.server.drop


class _ConnectHandler(BaseHTTPRequestHandler):
    """A CONNECT proxy: records each CONNECT's target and Proxy-Authorization,
    then relays bytes both ways until either side closes."""

    timeout = 10

    def log_message(self, format, *args):  # noqa: A002 - http.server API
        pass

    def do_CONNECT(self):  # noqa: N802 - http.server API
        with self.server.lock:
            self.server.seen.append((self.path, self.headers.get("Proxy-Authorization")))
        host, _, port = self.path.rpartition(":")
        self.close_connection = True
        with socket.create_connection((host, int(port)), timeout=10) as upstream:
            self.send_response(200, "Connection established")
            self.end_headers()
            ends = {self.connection: upstream, upstream: self.connection}
            while True:
                readable, _, _ = select.select(list(ends), [], [], 10)
                data = readable and readable[0].recv(65536)
                if not data:
                    return
                ends[readable[0]].sendall(data)


class _Server(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, handler, context: ssl.SSLContext | None = None):
        super().__init__(("127.0.0.1", 0), handler)
        self.context, self.lock = context, threading.Lock()
        self.seen: list = []
        self.connections = self.open = self.most_open = 0
        self.delay, self.encoding, self.drop = 0.0, None, False
        self.barrier: threading.Barrier | None = None
        self.url = f"{'https' if context else 'http'}://127.0.0.1:{self.server_address[1]}"

    def handle_error(self, request, client_address):
        pass  # a refused TLS handshake is expected in one test


@contextlib.contextmanager
def _serving(handler=_Handler, tls: bool = False):
    context = None
    if tls:
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        context.load_cert_chain(CERT, KEY)
    server = _Server(handler, context)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


def _run_threads(threads: list[threading.Thread]) -> None:
    """Start the threads with a short switch interval and wait for them all."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


@contextlib.contextmanager
def _backend(base_url: str, **kwargs):
    backend = HTTPBackend(base_url, **kwargs)
    try:
        yield backend
    finally:
        backend.close()


@pytest.fixture(autouse=True)
def environment(monkeypatch, tmp_path):
    """No proxy, CA bundle or .netrc but what a test sets."""
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    for name in ("REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("NETRC", str(tmp_path / "no-netrc"))


class TestPlainHTTP:
    def test_sequential_posts_reuse_one_connection(self):
        with _serving() as server, _backend(server.url) as backend:
            for _ in range(5):
                assert backend.complete(_REQUEST) == ("Summary: fine", 7, 3)
        assert server.connections == 1 and len(server.seen) == 5
        path, headers, _ = server.seen[0]
        assert path == "/v1/chat/completions" and headers["Host"] == server.url.removeprefix("http://")
        assert headers["Content-Type"] == "application/json" and "Authorization" not in headers

    def test_the_body_is_what_requests_sends(self):
        # A json= argument as requests encodes it: json.dumps, so ASCII only.
        content = "café\n\"x\""
        payload = {"model": "m", "messages": [{"role": "user", "content": content}], "temperature": 0.0, "max_tokens": 9}
        with _serving() as server, _backend(server.url) as backend:
            assert backend.complete(GenRequest(model="m", user_prompt=content, max_tokens=9)) == ("Summary: fine", 7, 3)
        assert server.seen[0][2] == json.dumps(payload).encode("ascii")

    @pytest.mark.parametrize("path", ["/api", "/api/"])
    def test_a_base_url_path_prefixes_each_route(self, path):
        with _serving() as server, _backend(server.url + path) as backend:
            backend.complete(_REQUEST)
        assert [target for target, _, _ in server.seen] == ["/api/v1/chat/completions"]

    @pytest.mark.parametrize("concurrency", [1, 3])
    def test_concurrency_threads_never_hold_more_than_concurrency_connections(self, concurrency):
        # Twice as many threads as the client lets post at once, switching often.
        with _serving() as server:
            server.delay = 0.02
            backend = backend_from_url(server.url, concurrency=concurrency)
            client = LLMClient(backend, concurrency=concurrency)

            def post(i):
                for j in range(3):
                    client.generate(GenRequest(model="m", user_prompt=f"{i} {j}"))

            _run_threads([threading.Thread(target=post, args=(i,)) for i in range(2 * concurrency)])
            backend.close()
        assert len(server.seen) == client.backend_calls == 6 * concurrency
        assert server.most_open <= concurrency and server.connections <= concurrency

    def test_a_pool_keeps_at_most_its_size_idle(self):
        # Six posts at once on a pool of two, without a client's bound on them:
        # the server answers none until all six have arrived.
        with _serving() as server:
            server.barrier = threading.Barrier(6)
            backend = backend_from_url(server.url, concurrency=2)
            _run_threads([threading.Thread(target=backend.complete, args=(_REQUEST,)) for _ in range(6)])
            assert len(server.seen) == server.connections == 6
            assert len(backend.session._idle) == 2
            backend.close()
            assert backend.session._idle == []

    @pytest.mark.parametrize("poll", [True, False], ids=["poll", "select_fallback"])
    def test_a_dropped_connection_is_replaced_without_a_retry(self, monkeypatch, poll):
        # The server closes each connection after answering, without saying so.
        # Without select.poll, the check before each reuse calls select.select.
        checks: list = []
        if not poll:
            real_select = select.select
            monkeypatch.delattr(select, "poll")
            monkeypatch.setattr(select, "select", lambda *args: checks.append(args) or real_select(*args))
        with _serving() as server, _backend(server.url) as backend:
            server.drop = True
            sleeps: list[float] = []
            client = LLMClient(backend, sleep=sleeps.append)
            for i in range(3):
                assert client.generate(GenRequest(model="m", user_prompt=str(i))).text == "Summary: fine"
        assert sleeps == [] and client.backend_calls == 3
        assert len(server.seen) == server.connections == 3
        assert len(checks) == (0 if poll else 2)

    @pytest.mark.parametrize("poll", [True, False], ids=["poll", "select_fallback"])
    def test_the_close_check_sees_a_closed_peer(self, monkeypatch, poll):
        if not poll:
            monkeypatch.delattr(select, "poll")
        ours, theirs = socket.socketpair()
        with ours, theirs:
            assert not llm_client._dropped(ours)
            theirs.close()
            assert llm_client._dropped(ours)

    def test_a_connection_closed_after_the_check_is_sent_on_again(self, monkeypatch):
        # The close arrives between the check and the send: the post goes out
        # once more on a new connection, and is not retried.
        with _serving() as server, _backend(server.url) as backend:
            server.drop = True
            monkeypatch.setattr(llm_client, "_dropped", lambda sock: False)
            sleeps: list[float] = []
            client = LLMClient(backend, sleep=sleeps.append)
            for i in range(3):
                client.generate(GenRequest(model="m", user_prompt=str(i)))
        assert sleeps == [] and client.backend_calls == 3
        assert len(server.seen) == server.connections == 3

    @pytest.mark.parametrize("encoding", sorted(_ENCODERS))
    def test_an_encoded_body_decodes(self, encoding):
        with _serving() as server, _backend(server.url) as backend:
            server.encoding = encoding
            assert backend.complete(_REQUEST) == ("Summary: fine", 7, 3)
        assert server.seen[0][1]["Accept-Encoding"] == "gzip, deflate"

    def test_a_closed_port_is_a_transport_error_after_the_retries(self):
        with _serving() as server:
            url = server.url
        sleeps: list[float] = []
        with _backend(url) as backend:
            client = LLMClient(backend, retry=RetryPolicy(attempts=3), sleep=sleeps.append)
            with pytest.raises(TransportError, match="retries exhausted after 3 attempts"):
                client.generate(_REQUEST)
        assert len(sleeps) == 2

    def test_a_redirect_is_an_endpoint_error(self):
        class _Redirect(_Handler):
            def do_POST(self):  # noqa: N802 - http.server API
                self.rfile.read(int(self.headers["Content-Length"]))
                self.send_response(307)
                self.send_header("Location", "/elsewhere")
                self.send_header("Content-Length", "0")
                self.end_headers()

        with _serving(_Redirect) as server, _backend(server.url) as backend:
            with pytest.raises(EndpointError) as err:
                backend.complete(_REQUEST)
        assert err.value.status == 307


@pytest.mark.skipif(not hasattr(socket, "TCP_QUICKACK"), reason="the platform has no TCP_QUICKACK")
class TestQuickAck:
    """``_Handler`` writes an answer's headers and body in two sends with
    Nagle's algorithm on, so the body waits for the ACK of the headers; if
    that ACK is delayed, a post on a reused connection takes about 44 ms."""

    @pytest.mark.parametrize("tls", [False, True], ids=["plain", "tls"])
    def test_a_post_on_a_reused_connection_does_not_wait_for_a_delayed_ack(self, monkeypatch, tls):
        monkeypatch.setenv("REQUESTS_CA_BUNDLE", str(CERT))
        walls = []
        with _serving(tls=tls) as server, _backend(server.url) as backend:
            for _ in range(12):
                start = time.perf_counter()
                assert backend.complete(_REQUEST) == ("Summary: fine", 7, 3)
                walls.append(time.perf_counter() - start)
        assert server.connections == 1 and len(server.seen) == 12
        walls = sorted(walls[1:])
        assert walls[len(walls) // 2] < 0.010, f"posts 2-12 took a median of {walls[len(walls) // 2] * 1e3:.1f} ms"


class TestNetrc:
    @pytest.fixture(autouse=True)
    def netrc_file(self, monkeypatch, tmp_path):
        path = tmp_path / "netrc"
        path.write_text("machine 127.0.0.1 login user password secret\n", encoding="utf-8")
        monkeypatch.setenv("NETRC", str(path))

    def test_netrc_credentials_go_to_a_post_without_a_key(self):
        with _serving() as server, _backend(server.url) as backend:
            backend.complete(_REQUEST)
        assert server.seen[0][1]["Authorization"] == "Basic dXNlcjpzZWNyZXQ="

    def test_the_api_key_is_sent_in_place_of_netrc_credentials(self):
        with _serving() as server, _backend(server.url, api_key="k") as backend:
            backend.complete(_REQUEST)
            backend.complete(_REQUEST)
        assert [headers["Authorization"] for _, headers, _ in server.seen] == ["Bearer k", "Bearer k"]

    def test_a_host_without_an_entry_gets_no_credentials(self):
        with _serving() as server, _backend(server.url.replace("127.0.0.1", "localhost")) as backend:
            backend.complete(_REQUEST)
        assert "Authorization" not in server.seen[0][1]


class TestProxies:
    def test_http_through_a_proxy_sends_an_absolute_form_target(self, monkeypatch):
        with _serving() as proxy:
            monkeypatch.setenv("HTTP_PROXY", proxy.url.replace("://", "://u:p%40ss@"))
            with _backend("http://target.example:8080/api") as backend:
                assert backend.complete(_REQUEST)[0] == "Summary: fine"
        [(path, headers, _)] = proxy.seen
        assert path == "http://target.example:8080/api/v1/chat/completions"
        assert headers["Host"] == "target.example:8080"
        assert headers["Proxy-Authorization"] == "Basic dTpwQHNz"  # u:p@ss

    def test_all_proxy_serves_a_scheme_without_its_own(self, monkeypatch):
        with _serving() as proxy:
            monkeypatch.setenv("all_proxy", proxy.url)
            with _backend("http://target.example") as backend:
                backend.complete(_REQUEST)
        assert [path for path, _, _ in proxy.seen] == ["http://target.example/v1/chat/completions"]

    @pytest.mark.parametrize("no_proxy", ["127.0.0.1", "localhost,127.0.0.1", "*", ".0.1"])
    def test_a_no_proxy_host_goes_direct(self, monkeypatch, no_proxy):
        with _serving() as proxy, _serving() as server:
            monkeypatch.setenv("HTTP_PROXY", proxy.url)
            monkeypatch.setenv("NO_PROXY", no_proxy)
            with _backend(server.url) as backend:
                backend.complete(_REQUEST)
        assert proxy.seen == [] and len(server.seen) == 1

    def test_https_through_a_proxy_opens_a_connect_tunnel(self, monkeypatch):
        monkeypatch.setenv("REQUESTS_CA_BUNDLE", str(CERT))
        with _serving(tls=True) as server, _serving(_ConnectHandler) as proxy:
            monkeypatch.setenv("HTTPS_PROXY", proxy.url.replace("://", "://u:p@"))
            monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:9")  # not the proxy of an https:// URL
            with _backend(server.url) as backend:
                for _ in range(2):
                    assert backend.complete(_REQUEST)[0] == "Summary: fine"
        port = server.server_address[1]
        assert proxy.seen == [(f"127.0.0.1:{port}", "Basic dTpw")]
        assert [path for path, _, _ in server.seen] == ["/v1/chat/completions"] * 2
        assert server.seen[0][1]["Host"] == f"127.0.0.1:{port}"

    @pytest.mark.parametrize("proxy", ["https://127.0.0.1:3128", "socks5://127.0.0.1:1080", "http://:3128"])
    def test_a_proxy_url_that_is_not_http_is_a_config_error(self, monkeypatch, proxy):
        monkeypatch.setenv("HTTP_PROXY", proxy)
        with pytest.raises(ConfigError, match="is not an http:// proxy URL"):
            HTTPBackend("http://target.example")

    def test_a_scheme_less_proxy_is_an_http_proxy(self, monkeypatch):
        with _serving() as proxy:
            monkeypatch.setenv("HTTP_PROXY", proxy.url.removeprefix("http://"))
            with _backend("http://target.example") as backend:
                backend.complete(_REQUEST)
        assert len(proxy.seen) == 1


class TestTLS:
    def test_a_round_trip_trusting_the_bundle(self, monkeypatch):
        monkeypatch.setenv("REQUESTS_CA_BUNDLE", str(CERT))
        with _serving(tls=True) as server, _backend(server.url) as backend:
            for _ in range(2):
                assert backend.complete(_REQUEST) == ("Summary: fine", 7, 3)
        assert server.connections == 1

    def test_curl_ca_bundle_is_read_when_requests_ca_bundle_is_not_set(self, monkeypatch):
        monkeypatch.setenv("CURL_CA_BUNDLE", str(CERT))
        with _serving(tls=True) as server, _backend(server.url.replace("127.0.0.1", "localhost")) as backend:
            assert backend.complete(_REQUEST)[0] == "Summary: fine"

    def test_without_the_bundle_the_post_is_a_transport_error_after_the_retries(self):
        sleeps: list[float] = []
        with _serving(tls=True) as server, _backend(server.url) as backend:
            client = LLMClient(backend, retry=RetryPolicy(attempts=3), sleep=sleeps.append)
            with pytest.raises(TransportError, match="CERTIFICATE_VERIFY_FAILED"):
                client.generate(_REQUEST)
        assert len(sleeps) == 2 and server.seen == []

    def test_a_bundle_that_does_not_load_is_a_config_error(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REQUESTS_CA_BUNDLE", str(tmp_path / "missing.pem"))
        with pytest.raises(ConfigError, match="could not load the CA bundle .*missing.pem"):
            HTTPBackend("https://127.0.0.1:8443")


class TestSettingsAreReadOnce:
    def test_proxies_bundle_and_netrc_are_looked_up_at_construction_only(self, monkeypatch, tmp_path):
        path = tmp_path / "netrc"
        path.write_text("machine elsewhere.example login user password secret\n", encoding="utf-8")
        monkeypatch.setenv("NETRC", str(path))
        monkeypatch.setenv("REQUESTS_CA_BUNDLE", str(CERT))
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        lookups: list[str] = []

        def counted(module, name):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, **kwargs: lookups.append(name) or real(*args, **kwargs))

        counted(urllib.request, "getproxies_environment")
        counted(urllib.request, "proxy_bypass_environment")
        counted(netrc, "netrc")
        counted(ssl, "create_default_context")
        with _serving(tls=True) as server, _backend(server.url) as backend:
            built = sorted(lookups)
            for _ in range(3):
                backend.complete(_REQUEST)
        assert built == ["create_default_context", "getproxies_environment", "netrc", "proxy_bypass_environment"]
        assert sorted(lookups) == built and len(server.seen) == 3


class TestEndpointURL:
    @pytest.mark.parametrize("url", ["ftp://host", "http://", "http://user:pw@host", "http://host:port"])
    def test_a_url_the_pool_cannot_post_to_is_a_config_error(self, url):
        with pytest.raises(ConfigError, match="endpoint URL"):
            HTTPBackend(url)

    def test_a_dropped_backend_closes_its_idle_connections(self):
        with _serving() as server:
            backend = HTTPBackend(server.url)
            backend.complete(_REQUEST)
            [conn] = backend.session._idle
            del backend
            assert conn.sock is None
