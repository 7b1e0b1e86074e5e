"""End-to-end gateway tests: HTTP submission through NDJSON results.

Real sockets on an ephemeral port, two inline shards (workers=0 — the
single-CPU CI runner runs jobs in the shard threads themselves) except
where a test needs process pools, the committed predictor for
admission.  Small eval budgets keep each dock in the tens of
milliseconds.
"""

import itertools
import json
import multiprocessing as mp

import pytest

from repro.cli import main
from repro.gateway import (Gateway, GatewayConfig, GatewayClient,
                           GatewayRejected, job_from_request, server)
from repro.gateway.protocol import HttpRequest, ProtocolError
from repro.serve import load_manifest_jobs, rank_records, shard_for


def _doc(case="1u4d", i=0, evals=200, n_runs=1, **extra):
    return {"case": case, "n_runs": n_runs, "evals": evals, "pop": 10,
            "ls_iters": 5, "backend": "baseline",
            "seed": {"entropy": 42, "index": i}, **extra}


#: a job no machine finishes in 10ms: predicted minutes of work
_IMPOSSIBLE = dict(evals=200_000, n_runs=8, deadline_s=0.01)


@pytest.fixture()
def gateway(tmp_path):
    cfg = GatewayConfig(port=0, n_shards=2, workers=0, poll_s=0.01,
                        manifest=str(tmp_path / "manifest"))
    gw = Gateway(cfg).start()
    try:
        yield gw, GatewayClient(f"http://127.0.0.1:{gw.port}")
    finally:
        gw.stop()


class TestEndToEnd:
    def test_mixed_batch_streams_and_ranks(self, gateway, tmp_path):
        gw, client = gateway
        assert client.healthz()["ok"] is True

        docs = [_doc(i=i) for i in range(6)]
        docs.append(_doc(i=99, **_IMPOSSIBLE))
        out = client.submit_batch(docs)

        assert len(out["accepted"]) == 6
        assert len(out["rejected"]) == 1
        rej = out["rejected"][0]
        assert rej["error"] == "admission_rejected"
        assert rej["reason"] == "deadline"
        assert rej["predicted_seconds"] > rej["limit_seconds"]

        # hash routing: the reply's shard is the content-hash owner
        for rec in out["accepted"]:
            assert rec["shard"] == shard_for(rec["job_id"], 2)
        assert {rec["shard"] for rec in out["accepted"]} == {0, 1}

        # stream until every accepted job is terminal
        results = list(client.stream())
        assert len(results) == 6
        assert all(rec["status"] == "ok" for rec in results)
        assert all(rec["best_score"] is not None for rec in results)

        # per-job status carries the full result payload
        jid = out["accepted"][0]["job_id"]
        status = client.status(jid)
        assert status["status"] == "ok"
        payload = status["result"]          # full JobResult record
        assert payload["status"] == "ok"
        runs = payload["result"]["runs"]
        assert min(r["best_score"] for r in runs) == \
            pytest.approx(status["best_score"])

        # every streamed record is already in the manifest log on disk
        ranking = rank_records(
            load_manifest_jobs(tmp_path / "manifest").values())
        scores = [r["best_score"] for r in ranking]
        assert scores == sorted(scores)
        assert len(ranking) == 6
        assert client.manifest()["ranking"] == ranking

        stats = client.stats()
        assert stats["scheduler"]["completed"] == 6
        assert stats["jobs"]["ok"] == 6
        assert stats["heartbeat_seconds"] > 0
        assert stats["scheduler"]["rejected"] == 1

    def test_single_rejection_is_429(self, gateway):
        _, client = gateway
        with pytest.raises(GatewayRejected) as exc:
            client.submit(_doc(i=0, **_IMPOSSIBLE))
        assert exc.value.status == 429
        assert exc.value.payload["reason"] == "deadline"
        assert exc.value.payload["retry_after_s"] > 0

    def test_unreadable_ligand_is_rejected_per_job(self, tmp_path):
        """An unreadable ligand in a batch used to answer 500
        FileNotFoundError after its sibling had been admitted; it is a
        per-job rejection now, and a bare submission of it a 422 with
        no Retry-After, since no retry can help."""
        import http.client
        bad = _doc(i=1, spec={"kind": "case-ligand", "case": "1u4d",
                              "ligand": str(tmp_path / "none.pdbqt")})
        gw = Gateway(GatewayConfig(port=0, n_shards=1, workers=0,
                                   poll_s=0.01)).start()
        try:
            client = GatewayClient(f"http://127.0.0.1:{gw.port}")
            out = client.submit_batch([_doc(i=0), bad])
            assert len(out["accepted"]) == 1
            [rej] = out["rejected"]
            assert rej["error"] == "admission_rejected"
            assert rej["reason"] == "unreadable"
            assert "FileNotFoundError" in rej["detail"]
            assert rej["retry_after_s"] is None
            assert [r["status"] for r in client.stream()] == ["ok"]

            conn = http.client.HTTPConnection("127.0.0.1", gw.port,
                                              timeout=10)
            conn.request("POST", "/v1/jobs", body=json.dumps(bad),
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            assert resp.status == 422
            assert resp.getheader("Retry-After") is None
            assert json.loads(resp.read())["reason"] == "unreadable"
            conn.close()
            scheduler = client.stats()["scheduler"]
            assert (scheduler["admitted"], scheduler["rejected"]) == (1, 2)
        finally:
            gw.stop()

    def test_duplicate_submission_is_idempotent(self, gateway):
        _, client = gateway
        first = client.submit(_doc(i=1))["accepted"][0]
        again = client.submit(_doc(i=1))["accepted"][0]
        assert again["job_id"] == first["job_id"]
        assert again["duplicate"] is True
        # the duplicate never re-enqueued: exactly one job known
        assert client.stats()["scheduler"]["admitted"] == 1

    def test_unknown_job_is_404(self, gateway):
        _, client = gateway
        from repro.gateway import GatewayError
        with pytest.raises(GatewayError) as exc:
            client.status("f" * 64)
        assert exc.value.status == 404

    def test_bad_request_is_400(self, gateway):
        gw, client = gateway
        import http.client
        conn = http.client.HTTPConnection("127.0.0.1", gw.port,
                                          timeout=10)
        conn.request("POST", "/v1/jobs", body=b"not json",
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        assert resp.status == 400
        conn.close()

    def test_a_bad_shorthand_number_is_400_over_http(self, gateway):
        """Regression: ``"pop": 0`` divided by zero, an HTTP 500."""
        gw, _ = gateway
        import http.client
        conn = http.client.HTTPConnection("127.0.0.1", gw.port,
                                          timeout=10)
        conn.request("POST", "/v1/jobs",
                     body=json.dumps(_doc(pop=0)).encode(),
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        assert resp.status == 400
        assert "pop_size" in json.loads(resp.read())["error"]
        conn.close()


class TestBadShorthand:
    """Regression: shorthand numbers were parsed outside the 400 guard,
    so a bad one raised ``ValueError`` (or ``ZeroDivisionError``) and
    the gateway answered 500."""

    @pytest.mark.parametrize("field", [
        {"pop": "x"}, {"pop": 0}, {"pop": None}, {"evals": "many"},
        {"n_runs": "x"}, {"priority": "hi"}, {"deadline_s": "soon"},
        {"seed": {"entropy": 42, "index": "x"}}],
        ids=["pop-str", "pop-zero", "pop-null", "evals-str", "n_runs-str",
             "priority-str", "deadline_s-str", "seed-index-str"])
    def test_a_bad_field_is_a_protocol_error(self, field):
        with pytest.raises(ProtocolError) as exc:
            job_from_request({**_doc(), **field})
        assert exc.value.status == 400


class TestManifestLog:
    def test_shard_threads_append_one_whole_line_per_job(self, tmp_path):
        """More shard threads than cores share one manifest log under a
        short switch interval: every streamed job is already on disk as
        exactly one whole line."""
        import sys
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            gw = Gateway(GatewayConfig(
                port=0, n_shards=4, workers=0, poll_s=0.01,
                manifest=str(tmp_path / "m"), manifest_shards=2)).start()
            try:
                client = GatewayClient(f"http://127.0.0.1:{gw.port}")
                out = client.submit_batch([_doc(i=i, evals=100)
                                           for i in range(12)])
                streamed = list(client.stream(timeout=120))
                lines = [json.loads(line)
                         for path in sorted((tmp_path / "m").glob("*.ndjson"))
                         for line in path.read_text().splitlines()]
            finally:
                gw.stop()
        finally:
            sys.setswitchinterval(switch)
        want = sorted(rec["job_id"] for rec in out["accepted"])
        assert len(want) == 12
        assert sorted(rec["job_id"] for rec in streamed) == want
        assert sorted(rec["job_id"] for rec in lines) == want


class TestShardPools:
    def test_pool_failure_is_logged_before_it_is_streamed(
            self, tmp_path, monkeypatch):
        """A pool that fails mid-batch: the jobs it never finished get
        one dead record each in the manifest log (they used to be dead
        in memory only), and each job releases its backlog once (the
        finished ones used to be released twice)."""
        class Broken(server.WorkerPool):
            def map(self, jobs):
                yield from itertools.islice(super().map(jobs), 1)
                raise RuntimeError("pool broke")

        monkeypatch.setattr(server, "WorkerPool", Broken)
        gw = Gateway(GatewayConfig(port=0, n_shards=1, workers=0,
                                   poll_s=0.01,
                                   manifest=str(tmp_path / "m")))
        # admitted before the shard thread starts: one batch of three
        status, _ = gw._submit(HttpRequest(
            "POST", "/v1/jobs",
            body=json.dumps({"jobs": [_doc(i=i) for i in range(3)]})
            .encode()))
        assert status == 200
        gw.start()
        try:
            client = GatewayClient(f"http://127.0.0.1:{gw.port}")
            streamed = list(client.stream(timeout=120))
            lines = [json.loads(line) for line in
                     (tmp_path / "m" / "shard-0000.ndjson")
                     .read_text().splitlines()]
        finally:
            gw.stop()
        assert sorted(r["status"] for r in streamed) == ["dead", "dead", "ok"]
        assert sorted(r["job_id"] for r in lines) \
            == sorted(r["job_id"] for r in streamed)
        assert {r["job_id"]: r["status"] for r in lines} \
            == {r["job_id"]: r["status"] for r in streamed}
        assert gw.scheduler.completed == 3

    def test_each_shard_keeps_one_process_pool(self, monkeypatch):
        built = []

        class Counted(server.WorkerPool):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(server, "WorkerPool", Counted)
        docs = {0: [], 1: []}
        for i in range(32):
            job, _, _ = job_from_request(_doc(i=i, evals=100))
            docs[shard_for(job.job_id, 2)].append(_doc(i=i, evals=100))
        gw = Gateway(GatewayConfig(port=0, n_shards=2, workers=1,
                                   poll_s=0.01)).start()
        try:
            client = GatewayClient(f"http://127.0.0.1:{gw.port}")
            for k in range(3):       # one batch per shard per round
                client.submit_batch([docs[0][k], docs[1][k]])
                assert all(rec["status"] == "ok"
                           for rec in client.stream(timeout=120))
        finally:
            gw.stop()
        assert len(built) == 2
        assert [p for p in mp.active_children()
                if p.name.startswith("repro-serve-worker")] == []

    def test_autoscale_replaces_the_pool_only_on_a_new_size(
            self, monkeypatch):
        built = []

        class Inline(server.WorkerPool):     # sized, but runs in-thread
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

            def map(self, jobs):
                yield from self._map_inline(jobs)

        monkeypatch.setattr(server, "WorkerPool", Inline)
        gw = Gateway(GatewayConfig(port=0, n_shards=1, workers=1,
                                   autoscale=True, poll_s=0.01))
        sizes = iter([1, 1, 2])
        monkeypatch.setattr(gw.scheduler, "apply_autoscale",
                            lambda shard: next(sizes))
        gw.start()
        try:
            client = GatewayClient(f"http://127.0.0.1:{gw.port}")
            for i in range(3):              # one batch per submission
                client.submit(_doc(i=i, evals=100))
                assert all(rec["status"] == "ok"
                           for rec in client.stream(timeout=120))
        finally:
            gw.stop()
        assert [p.workers for p in built] == [1, 2]


class TestTracing:
    def test_stop_tears_down_the_gateways_tracer(self, tmp_path):
        """The tracer a traced gateway installs ends with ``stop()``:
        later work in the process must not append to its log.  A tracer
        the caller configured is left alone."""
        from repro.obs import NullTracer, configure, get_tracer

        trace = tmp_path / "gw.jsonl"
        gw = Gateway(GatewayConfig(port=0, n_shards=1, workers=0,
                                   poll_s=0.01, trace=str(trace))).start()
        try:
            client = GatewayClient(f"http://127.0.0.1:{gw.port}")
            client.submit(_doc(evals=100))
            assert len(list(client.stream(timeout=120))) == 1
        finally:
            gw.stop()
        lines = trace.read_text().splitlines()
        assert any('"gateway.done"' in line for line in lines)
        assert isinstance(get_tracer(), NullTracer)
        get_tracer().event("after.stop")
        assert trace.read_text().splitlines() == lines

        mine = configure(None)
        Gateway(GatewayConfig(port=0, n_shards=1, workers=0,
                              poll_s=0.01)).start().stop()
        assert get_tracer() is mine


class TestSloAdmission:
    def test_slo_rejects_before_deadline_checks(self, tmp_path):
        cfg = GatewayConfig(port=0, n_shards=2, workers=0, poll_s=0.01,
                            slo_seconds=0.001)
        gw = Gateway(cfg).start()
        try:
            client = GatewayClient(f"http://127.0.0.1:{gw.port}")
            with pytest.raises(GatewayRejected) as exc:
                client.submit(_doc(i=0, evals=100_000, n_runs=8))
            assert exc.value.payload["reason"] == "slo"
        finally:
            gw.stop()


class TestGatewayCli:
    def test_submit_watch_and_stream(self, gateway, capsys):
        gw, _ = gateway
        url = f"http://127.0.0.1:{gw.port}"
        rc = main(["gateway", "submit", "--url", url,
                   "--cases", "1u4d", "1t46", "--tensor", "baseline",
                   "-nrun", "1", "--evals", "200", "--pop", "10",
                   "--lsit", "5", "--watch"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("accepted") == 2
        assert "[ok]" in out and "kcal/mol" in out

        rc = main(["gateway", "watch", "--url", url, "--once"])
        assert rc == 0
        lines = [json.loads(line) for line in
                 capsys.readouterr().out.splitlines() if line.strip()]
        assert len(lines) == 2
        assert all(rec["status"] == "ok" for rec in lines)

    def test_submit_all_rejected_exits_nonzero(self, tmp_path, capsys):
        cfg = GatewayConfig(port=0, n_shards=1, workers=0, poll_s=0.01,
                            slo_seconds=0.001)
        gw = Gateway(cfg).start()
        try:
            url = f"http://127.0.0.1:{gw.port}"
            rc = main(["gateway", "submit", "--url", url,
                       "--cases", "7cpa", "--evals", "100000",
                       "-nrun", "8"])
            assert rc == 1
            assert "REJECTED" in capsys.readouterr().out
        finally:
            gw.stop()
