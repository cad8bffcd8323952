"""serve-mixed: ``repro serve`` in its own process, two closed-loop clients.

Each *round* posts the same make-up of requests in a seeded order:

- ``REPEATED`` posts drawn from four fixed scenarios (after the first
  round every one is a page-load memo hit);
- ``NOVEL`` posts with fresh T1/T2/fast-dormancy/profile overrides
  (memo misses, so the server runs discrete-event page loads);
- ``MALFORMED`` posts whose ``Content-Length`` is not an integer.
  Their correct answer is a 400; the server drops the connection
  instead, so they count as failed and stay out of the latency samples.

``n_users`` is drawn on both sides of the 2 % drop knee (about 160 users
for the default pages).  Whole rounds only, so the failed share is the
same in every run.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import reference
from workloads import require

REPEATED = 28
NOVEL = 10
MALFORMED = 2
SCENARIOS = 4
USERS = (130, 200)
PROFILES = ("ideal", "suburban", "congested", "cell_edge")
CLIENTS = 2
TIMEOUT_S = 60.0

HERE = Path(__file__).resolve().parent


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, env: Dict[str, str], work_dir: Path,
                 spans_path: Optional[Path] = None):
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro", "serve"]
        else:
            cmd = [sys.executable, str(HERE / "serve_launcher.py"),
                   str(spans_path)]
        cmd += ["--port", "0"]
        # The malformed posts make the handler print tracebacks.
        self._stderr = open(work_dir / f"serve-{time.time_ns()}.err", "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                                     stderr=self._stderr, text=True)
        try:
            self.host, self.port = self._wait_bound()
            while not self.get("/health").get("warm"):
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _wait_bound(self) -> Tuple[str, int]:
        for line in self.proc.stdout:
            if line.startswith("serving on http://"):
                address = line.split()[2][len("http://"):]
                host, port = address.rsplit(":", 1)
                return host, int(port)
        raise RuntimeError(f"server exited with {self.proc.wait()}")

    def get(self, path: str) -> dict:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=TIMEOUT_S)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


def post(host: str, port: int, body: bytes, request_id: str,
         length: Optional[str] = None) -> Tuple[int, bytes, float]:
    """One ``POST /predict``; status -1 means the connection dropped."""
    started = time.perf_counter()
    conn = http.client.HTTPConnection(host, port, timeout=TIMEOUT_S)
    try:
        conn.putrequest("POST", "/predict")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", length or str(len(body)))
        conn.putheader("X-Request-Id", request_id)
        conn.endheaders(body)
        response = conn.getresponse()
        status, data = response.status, response.read()
    except (http.client.RemoteDisconnected, ConnectionError):
        status, data = -1, b""
    finally:
        conn.close()
    return status, data, time.perf_counter() - started


class Mix:
    """The seeded request make-up, one round at a time.

    Draws are stratified so that every seed and every round carry the
    same spread of load: the repeated scenarios take one user count
    from each quarter of ``USERS``, and each round's novel posts take
    one user count from each tenth, the profiles in equal shares and
    fast dormancy on for half of them.
    """

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng([seed, 0])
        self.scenarios = [{"n_users": n} for n in
                          stratified_users(rng, SCENARIOS)]

    def round(self, index: int) -> List[Tuple[str, dict]]:
        rng = np.random.default_rng([self.seed, 1, index])
        items = [("repeated", self.scenarios[i % SCENARIOS])
                 for i in range(REPEATED)]
        profiles = rng.permutation(
            [PROFILES[i % len(PROFILES)] for i in range(NOVEL)])
        for i, n_users in enumerate(stratified_users(rng, NOVEL)):
            items.append(("novel", {
                "n_users": n_users,
                "profile": str(profiles[i]),
                "setup": {"t1": round(float(rng.uniform(2.0, 6.0)), 6),
                          "t2": round(float(rng.uniform(8.0, 20.0)), 6),
                          "fast_dormancy": i % 2 == 0},
            }))
        items += [("malformed", {"n_users": 150})] * MALFORMED
        order = rng.permutation(len(items))
        return [items[i] for i in order]


def stratified_users(rng, strata: int) -> List[int]:
    """One user count from each of ``strata`` equal slices of USERS."""
    width = (USERS[1] - USERS[0]) / strata
    return [int(USERS[0] + width * (i + rng.uniform()))
            for i in range(strata)]


def canonical(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True).encode()


class ServeMixed:
    name = "serve-mixed"

    def __init__(self, seed: int, work_root: Path, env: Dict[str, str]):
        self.seed = seed
        self.work_root = work_root
        self.env = env
        self.mix = Mix(seed)
        self.next_round = 0

    def setup_probe(self, spans_path: Optional[Path] = None) -> float:
        """Set-up seconds of a fresh server, traced if ``spans_path``."""
        server = Server(self.env, self.work_root, spans_path)
        server.stop()
        return server.setup_s

    def run_rounds(self, server: Server, seconds: float,
                   tag: str) -> List[dict]:
        """Whole rounds until ``seconds`` have passed; one record per
        post."""
        records: List[dict] = []
        deadline = time.perf_counter() + seconds
        with ThreadPoolExecutor(max_workers=CLIENTS) as clients:
            while True:
                index = self.next_round
                self.next_round += 1
                jobs = []
                for k, (kind, payload) in enumerate(self.mix.round(index)):
                    body = canonical(payload)
                    length = (f"{len(body)}.5" if kind == "malformed"
                              else None)
                    rid = f"{tag}{index}-{k}"
                    jobs.append((kind, body, rid, clients.submit(
                        post, server.host, server.port, body, rid,
                        length)))
                for kind, body, rid, future in jobs:
                    status, data, latency = future.result()
                    records.append({"kind": kind, "body": body, "rid": rid,
                                    "status": status, "data": data,
                                    "latency": latency})
                if time.perf_counter() >= deadline:
                    return records

    @staticmethod
    def accounting(records: List[dict]) -> Tuple[int, int]:
        failed = 0
        for record in records:
            expected = 400 if record["kind"] == "malformed" else 200
            failed += record["status"] != expected
        return len(records), failed

    @staticmethod
    def latencies(records: List[dict]) -> List[float]:
        return [r["latency"] for r in records
                if r["kind"] != "malformed" and r["status"] == 200]

    def check(self, records: List[dict]) -> None:
        """Every answer against Erlang-B and Poisson bounds; repeats
        byte-identical."""
        from repro.ablation.objective import variant_hold_pool
        from repro.serve.schema import PredictRequest

        answers: Dict[bytes, bytes] = {}
        for record in records:
            if record["kind"] == "malformed":
                continue
            require(record["status"] == 200, "serve.well_formed_answered",
                    f"status {record['status']} for {record['body']!r}")
            first = answers.setdefault(record["body"], record["data"])
            require(first == record["data"], "serve.repeat_byte_identical",
                    record["body"].decode())
        for body, data in answers.items():
            request = PredictRequest.from_payload(json.loads(body))
            capacity = json.loads(data)["capacity"]
            mean_hold = float(np.mean(variant_hold_pool(
                request.setup(), request.scenario())))
            blocking = reference.erlang_b(
                request.n_channels,
                request.n_users / request.mean_interval * mean_hold)
            sessions = capacity["sessions"]
            tol = reference.blocking_tolerance(blocking, sessions,
                                               request.n_channels)
            require(abs(capacity["drop_probability"] - blocking) <= tol,
                    "serve.drop_vs_erlang_b",
                    f"{body.decode()}: {capacity['drop_probability']:.4f}"
                    f" vs {blocking:.4f}")
            low, high = reference.poisson_bounds(
                request.n_users / request.mean_interval * request.horizon)
            require(low <= sessions <= high, "serve.sessions_poisson",
                    f"{body.decode()}: {sessions} not in "
                    f"[{low:.0f}, {high:.0f}]")


def serve_counters(server: Server) -> dict:
    """The service's own batch and memo counters (``GET /metrics``)."""
    snapshot = server.get("/metrics")
    caches = snapshot["caches"]
    memo_hits = sum(caches[k]["hits"] for k in ("benchmark_comparison",
                                                "pages"))
    memo_misses = sum(caches[k]["misses"] for k in ("benchmark_comparison",
                                                    "pages"))
    loads = caches["ablate_loads"]
    return {"batches": snapshot["serving"]["batches"],
            "coalesced": snapshot["serving"]["coalesced"],
            "requests": snapshot["serving"]["requests"],
            "memo_hits": memo_hits + loads["memo_hits"],
            "memo_misses": memo_misses + loads["loads"],
            "load_hits": loads["memo_hits"] + loads["disk_hits"],
            "load_lookups": (loads["memo_hits"] + loads["disk_hits"]
                             + loads["loads"])}


def env_for_server(base: Dict[str, str], src: Path) -> Dict[str, str]:
    env = dict(base)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env
