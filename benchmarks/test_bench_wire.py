"""E12 — the wire tier: binary payloads and socket dispatch (ROADMAP 5).

Two measurements, one invariant.

**Codec leg** — module payload materialization on the claim path.  The
text transport prints the module into every job record and every claim
re-parses it; the bitcode transport encodes each unique module once
(content addressing dedups the blob) and each node decodes it once (the
fingerprint-keyed LRU serves repeats).  A module's payload is claimed
many times per campaign — once per pipeline shard, reclaim attempt, and
resume — so the leg replays ``CLAIMS_PER_MODULE`` claims per module and
gates the amortized speedup at >=5x.

**Dispatch leg** — publish -> claim -> result -> collect for one job
set through a loopback :class:`QueueBroker`, gated by a
``socket_jobs_per_sec`` floor.  The collected result set must equal the
published one — the transport moves bytes, it never changes outcomes.

Summary: ``benchmarks/out/BENCH_wire.json``; gated by the ``wire``
section of ``baseline.json`` via ``check_regression.py``.
"""

import time

from repro.fuzz.checkpoint import jobs_fingerprint, result_to_dict
from repro.fuzz.driver import FuzzConfig
from repro.fuzz.net import QueueBroker, SocketQueue
from repro.fuzz.parallel import ShardJob, ShardResult
from repro.fuzz.seeds import ARCHETYPES, generate_corpus
from repro.fuzz.wire import DecodeCache, blob_digest, encode_payload
from repro.ir import parse_module, print_module

from bench_utils import scaled, write_json

# A payload is claimed well more than once per campaign: pipeline
# shards x retry attempts x resumes.  12 mirrors three pipelines with
# up to four claims each — the regime content addressing targets.
CLAIMS_PER_MODULE = 12
MODULE_COUNT = len(ARCHETYPES)
JOB_COUNT = scaled(150, 60)
ROUNDS = scaled(5, 3)

IR = """define i32 @f(i32 %a) {
entry:
  %t = add i32 %a, 1
  ret i32 %t
}
"""


def _modules():
    corpus = generate_corpus(MODULE_COUNT, seed=77)
    return [parse_module(text, name) for name, text in corpus]


def _codec_leg():
    modules = _modules()
    texts = [print_module(module) for module in modules]
    # The parity these timings rest on: decoding the bitcode payload
    # reconstructs the canonical text exactly (print∘parse fixpoint).
    for text in texts:
        data, fmt = encode_payload(text, "bitcode")
        assert fmt == "bitcode"
        cache = DecodeCache(capacity=1)
        assert cache.text(blob_digest(data), data, fmt) == text

    def text_path():
        # Coordinator prints the module into each job record; every
        # claim parses it back.  No sharing anywhere.
        for module in modules:
            for _ in range(CLAIMS_PER_MODULE):
                parse_module(print_module(module))

    cache_stats = {}

    def bitcode_path():
        # Coordinator: encode once per unique module, content-addressed.
        store = {}
        digests = []
        for text in texts:
            data, fmt = encode_payload(text, "bitcode")
            sha = blob_digest(data)
            store[sha] = (data, fmt)
            digests.append(sha)
        # Node: the decode LRU pays one decode per blob; repeats hit.
        cache = DecodeCache()
        hits = misses = 0
        for sha in digests:
            data, fmt = store[sha]
            for _ in range(CLAIMS_PER_MODULE):
                before = len(cache)
                cache.text(sha, data, fmt)
                if len(cache) == before:
                    hits += 1
                else:
                    misses += 1
        cache_stats["hits"], cache_stats["misses"] = hits, misses

    best = {"text": float("inf"), "bitcode": float("inf")}
    for _ in range(ROUNDS):
        begin = time.perf_counter()
        text_path()
        best["text"] = min(best["text"], time.perf_counter() - begin)
        begin = time.perf_counter()
        bitcode_path()
        best["bitcode"] = min(best["bitcode"],
                              time.perf_counter() - begin)
    total = len(modules) * CLAIMS_PER_MODULE
    hit_rate = cache_stats["hits"] / total
    return {
        "modules": len(modules),
        "claims": total,
        "text_best_round": round(best["text"], 6),
        "bitcode_best_round": round(best["bitcode"], 6),
        "codec_speedup": round(best["text"] / best["bitcode"], 4),
        "decode_hit_rate": round(hit_rate, 6),
    }


def _jobs():
    return [ShardJob(job_index=index, file_name=f"f{index}.ll", text=IR,
                     config=FuzzConfig(base_seed=index), iterations=1)
            for index in range(JOB_COUNT)]


def _result(index):
    return ShardResult(job_index=index, file_name=f"f{index}.ll",
                       pipeline="O2", worker="w", seed=index,
                       iterations=1)


def _drain(coordinator, node, jobs, fingerprint):
    """One full dispatch cycle; returns (seconds, collected results)."""
    begin = time.perf_counter()
    coordinator.publish(jobs, fingerprint)
    completed = 0
    while completed < len(jobs):
        claims = node.claim_next(limit=8)
        if not claims:
            break
        for job, _lease in claims:
            node.publish_result(_result(job.job_index), fingerprint)
            completed += 1
    collected = coordinator.collect_results(fingerprint)
    elapsed = time.perf_counter() - begin
    assert completed == len(jobs)
    assert node.drained()
    return elapsed, collected


def _dispatch_leg():
    jobs = _jobs()
    fingerprint = jobs_fingerprint(jobs)
    published = {job.job_index: result_to_dict(_result(job.job_index)) for job in jobs}
    best = float("inf")
    mismatches = 0
    for _ in range(ROUNDS):
        broker = QueueBroker()
        broker.start()
        try:
            coordinator = SocketQueue(broker.address, node="coordinator")
            node = SocketQueue(broker.address, node="n1")
            elapsed, collected = _drain(coordinator, node, jobs,
                                        fingerprint)
            coordinator.close()
            node.close()
        finally:
            broker.stop()
        best = min(best, elapsed)
        # Transport invariance: count the rounds whose collected results
        # are not exactly the published ones.
        collected = {
            index: result_to_dict(result) for index, result in collected.items()
        }
        mismatches += collected != published
    return {
        "jobs": len(jobs),
        "socket_best_round": round(best, 6),
        "socket_jobs_per_sec": round(len(jobs) / best, 3),
        "result_mismatches": mismatches,
    }


def test_bench_wire(benchmark):
    payload = {"bench": "wire", "schema": 1,
               "claims_per_module": CLAIMS_PER_MODULE}

    def measure():
        payload.update(_codec_leg())
        payload.update(_dispatch_leg())

    benchmark.pedantic(measure, rounds=1, iterations=1)

    assert payload["decode_hit_rate"] > 0.9
    assert payload["result_mismatches"] == 0
    write_json("BENCH_wire.json", payload)
