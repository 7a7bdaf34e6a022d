"""The four workloads: seeded inputs, the timed loop, and output checks.

Every workload follows the same shape (:class:`Workload`):

1. ``setup()`` builds what the first timed operation needs, timed
   into ``setup_s``; the metric is the fast decile (:func:`fast`) of
   repeated set-ups, because a single one is too noisy to compare.  The service workloads
   start from scratch :attr:`ServeWorkload.setups` times before the
   timed loop and keep the last.  The in-process workloads repeat their
   set-up work (:meth:`Workload.timed_build`) after every untraced
   operation, so the samples spread over the whole run as the
   operations do, not over one short burst of host time.
2. ``measure(seconds, tracer)`` runs a closed loop of operations.  It
   stops issuing at the first *round* boundary after ``seconds``
   (a round is the seeded document block or list the workload cycles
   through), so each run measures whole rounds and the mix of
   operations is the same in every run.  It leaves ``figures``:
   throughput, p50 and tail read as fast deciles of repeated work
   (:func:`round_figures`, :func:`document_figures`).
3. ``verify()`` recomputes a seeded sample of the operations in process
   and compares the records byte for byte with what the system
   returned.

Known compute-time failures (:func:`expected_error`) are part of the
``serve_miss`` document block.  An operation passes its check when it
returns a record that passes the checks, or, for a document with a
predicted failure, when it fails with exactly the predicted error type.
"""

from __future__ import annotations

import asyncio
import hashlib
import importlib
import json
import random
import statistics
import time
from array import array
from pathlib import Path

from repro.campaign.fingerprint import clear_fingerprint_cache, code_fingerprint
from repro.campaign.spec import CampaignSpec, canonical_json
from repro.campaign.targets import resolve_target
import repro.engine.request as request_api
from repro.engine.request import RunRequest
from repro.obs import CostModelCheck
from repro.obs.check import CostCheckReport
from repro.service import ServiceConfig, SimulationService, serve
import repro.workloads as registry

# Every module a traced run instruments is imported in every run, so the
# pool's forked workers start from the same state either way.
from tracing import INSTRUMENTS, layer_table

for _module in {m for m, *_rest in INSTRUMENTS}:
    importlib.import_module(_module)

now = time.perf_counter_ns

#: Chains the miss block draws across (guest model of each).
MISS_CHAINS = (("bsp", "bsp"), ("bsp-on-logp", "bsp"),
               ("bsp-on-network", "bsp"), ("logp-on-bsp", "logp"))


def expected_error(doc: dict) -> str | None:
    """The compute-time failure a document is known to hit, if any.

    * A hypercube (the default network topology) needs a power-of-two
      processor count: ``TopologyError`` otherwise.
    * ``jacobi`` and ``gradient`` at p=24 stall the deterministic
      BSP-on-LogP router: ``StallError``.
    """
    p = doc["p"]
    if "network" in doc["chain"] and p & (p - 1):
        return "TopologyError"
    if (doc["chain"] == "bsp-on-logp" and doc.get("workload") in ("jacobi", "gradient")
            and p == 24):
        return "StallError"
    return None


def record_problem(record: dict, doc: dict) -> str | None:
    """Why a returned record is wrong, or ``None`` when it passes."""
    if record.get("request") != RunRequest.from_dict(doc).to_dict():
        return "record names another request"
    if record.get("outputs_match") is False:
        return "guest outputs differ from the native run"
    if "cost_check" in record:
        failures = CostCheckReport.from_dict(record["cost_check"]).failures()
        bad = [r for r in failures if r.kind in ("exact", "upper")]
        if bad:
            return f"cost check failed: {bad[0].name}"
    return None


def digest(record: dict) -> str:
    return hashlib.sha256(canonical_json(record).encode()).hexdigest()[:16]


def doc_id(doc: dict) -> str:
    return digest(RunRequest.from_dict(doc).to_dict())


def stack_record(result, stack) -> dict:
    """The ``request`` target's record shape for an in-process run."""
    record = {"request": stack.request.to_dict(), "chain": stack.describe(),
              **result.as_row()}
    try:
        record["cost_check"] = CostModelCheck.check(result).as_dict()
    except TypeError:
        pass
    return json.loads(json.dumps(record))  # the stored (JSON) form


class Workload:
    """Shared bookkeeping: latencies, failures, checks, layer rows."""

    name = ""

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.work = work
        self.digests: dict[str, str] = {}  # document id -> record digest
        self.latencies = array("d")  # seconds, in completion order
        #: The last timed loop's (throughput_ops, p50 s, tail percentile,
        #: tail s, samples above it, how they were taken).
        self.figures: tuple = ()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.known_failures: dict[str, int] = {}
        self.layers: dict[str, list] = {}
        self.windows: dict = {}
        self.issued = 0
        self.setup_s: list[float] = []
        self._dirs = 0

    def setup_rng(self) -> random.Random:
        """The same stream on every set-up repeat of one run."""
        return random.Random(f"{self.name}:{self.seed}:inputs")

    def fresh_dir(self) -> Path:
        self._dirs += 1
        return self.work / f"{self.name}-{self._dirs}"

    def timed_build(self):
        """One run of the in-process set-up work, timed into ``setup_s``."""
        t0 = now()
        built = self.build()
        self.setup_s.append((now() - t0) / 1e9)
        return built

    def problem(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)

    def check_outcome(self, doc: dict, ok: bool, record, error) -> bool:
        """Check one operation's output; returns whether it passed."""
        self.attempted += 1
        want = expected_error(doc)
        if ok:
            why = record_problem(record, doc)
            if why is None:
                value = digest(record)
                if self.digests.setdefault(doc_id(doc), value) != value:
                    why = "record differs from an earlier one in this run"
        elif want is not None and str(error).startswith(want + ":"):
            self.known_failures[want] = self.known_failures.get(want, 0) + 1
            why = None
        else:
            why = f"failed: {error}"
        if why is not None:
            self.failed += 1
            self.problem(f"{json.dumps(doc, sort_keys=True)}: {why}")
        return why is None


class ServeWorkload(Workload):
    """An in-process service and its TCP listener on this loop, driven
    over one loopback connection by a closed loop of ``outstanding``
    requests."""

    outstanding = 1
    #: Set-ups from scratch before the timed loop; the last one is kept.
    setups = 1

    async def setup(self) -> None:
        clear_fingerprint_cache()  # a starting service fingerprints the source
        svc = SimulationService(self.config(self.fresh_dir()))
        await svc.start()
        await self.prepare(svc)
        self.attempted_before = self.attempted
        self.server = await serve(svc, "127.0.0.1", 0)
        port = self.server.sockets[0].getsockname()[1]
        self.reader, self.writer = await asyncio.open_connection("127.0.0.1", port)
        self.svc = svc

    async def teardown(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()
        self.server.close()
        await self.server.wait_closed()
        await self.svc.close()

    def request_line(self, req_id: int, index: int) -> bytes:
        return (b'{"op": "run", "id": %d, "request": ' % req_id
                + self.doc_bytes[index] + b"}\n")

    async def measure(self, seconds: float, tracer=None) -> float:
        """Closed loop; returns the measured wall seconds."""
        if tracer is not None:
            tracer.reset()
        reader, writer = self.reader, self.writer
        sent: dict[int, tuple[int, int]] = {}
        start = now()
        deadline = start + int(seconds * 1e9)

        def send() -> None:
            index = self.next_index(self.issued)
            self.issued += 1
            req_id = self.issued
            sent[req_id] = (index, now())
            writer.write(self.request_line(req_id, index))

        for _ in range(self.outstanding):
            send()
        await writer.drain()
        latencies = array("d")
        done = array("q")
        while sent:
            line = await reader.readline()
            t = now()
            head, rest = line.split(b", ", 1)
            index, t_sent = sent.pop(int(head[7:]))
            latencies.append((t - t_sent) / 1e9)
            done.append(t)
            self.check_reply(index, line, rest)
            if t < deadline or self.issued % self.round_size:
                send()
                await writer.drain()
        elapsed = (now() - start) / 1e9
        self.latencies += latencies
        self.figures = round_figures(start, done, latencies, self.round_size)
        if tracer is not None:
            # Replies wake before run_pool returns; let the last job end.
            while tracer.calls["pool.call"] < tracer.counts["pool.started"]:
                await asyncio.sleep(0.002)
            self.attribute(tracer.take(len(latencies)), latencies)
        return elapsed

    def attribute(self, window, latencies) -> None:
        """Split the summed request latency into layer rows."""
        rows = dict.fromkeys(
            ("protocol.overhead", "request.parse", "request.key", "store.get",
             "service.submit", "service.dispatch_wait", "pool.transit",
             "pool.compute", "store.append"), 0)
        for rec in window.requests:
            span = rec["t1"] - rec["t0"]
            for layer, ns in rec["layers"].items():
                rows[layer] += ns
            wait = 0
            landed = window.landed.get(rec["key"])
            started = window.pool_start.get(rec["key"])
            if landed is not None and started is not None:
                t_land, t_appended, wall_s = landed
                wait = rec["t1"] - rec["t_get_end"]
                pool = t_land - started
                rows["service.dispatch_wait"] += started - rec["t_get_end"]
                rows["pool.compute"] += wall_s * 1e9
                rows["pool.transit"] += pool - wall_s * 1e9
                rows["store.append"] += t_appended - t_land
            rows["service.submit"] += span - rec["children"] - wait
            rows["protocol.overhead"] -= span
        total = sum(latencies) * 1e9
        rows["protocol.overhead"] += total
        self.layers["requests"] = [len(latencies), total, layer_table(rows, total)]
        window.rows = rows
        self.windows["primary"] = window


class ServeHit(ServeWorkload):
    """Every request is a cache hit on a prewarmed working set."""

    name = "serve_hit"
    setups = 5
    outstanding = 4
    working_set = 256
    round_size = 1024

    def config(self, store_dir) -> ServiceConfig:
        return ServiceConfig(store_dir=str(store_dir), workers=0)

    def documents(self) -> list[dict]:
        """256 distinct cheap documents at p <= 8: 128 v1 ``program``
        documents and 128 v2 ``workload`` documents over six chains.
        The shapes (chain, program or workload, p, arguments) are the
        same on every seed, taken in turn from the candidate lists, so
        the reply sizes and the parse and hashing work do not depend on
        the seed; the seed draws each document's data seed."""
        rng = self.setup_rng()
        v1 = [{"version": 1, "chain": chain, "program": prog, "p": p}
              for chain in ("bsp", "bsp-on-logp", "bsp-on-network")
              for prog in ("prefix", "radix-sort", "sample-sort", "matvec", "fft")
              # The v1 fft program has 4 points per processor: p <= 4.
              for p in ((2, 4) if prog == "fft" else (2, 4, 8))]
        v1 += [{"version": 1, "chain": chain, "program": prog, "p": p}
               for chain in ("logp", "logp-on-bsp")
               for prog in ("sum", "ring", "broadcast", "alltoall")
               for p in (2, 4, 8)]
        v2 = [{"chain": chain, "workload": w.name, "p": pt["p"],
               "args": {k: v for k, v in pt.items() if k not in ("p", "seed")}}
              for chain, model in MISS_CHAINS
              for w in registry.iter_workloads() if w.model == model
              for pt in w.points(quick=True) if pt["p"] <= 8]
        v2 = [doc for doc in v2 if expected_error(doc) is None]
        half = self.working_set // 2
        shapes = [v1[i % len(v1)] for i in range(half)]
        shapes += [v2[i % len(v2)] for i in range(half)]
        seeds = rng.sample(range(64), 4)  # a shape repeats at most 4 times
        seen: dict[str, int] = {}
        docs = []
        for shape in shapes:
            key = canonical_json(shape)
            docs.append(dict(shape, seed=seeds[seen.get(key, 0)]))
            seen[key] = seen.get(key, 0) + 1
        return docs

    async def prepare(self, svc) -> None:
        self.docs = self.documents()
        responses = await asyncio.gather(*(svc.submit(d) for d in self.docs))
        self.expected = []
        counted = self.attempted, self.failed
        for doc, resp in zip(self.docs, responses):
            if not self.check_outcome(doc, resp["ok"], resp["record"], resp["error"]):
                raise RuntimeError(f"prewarm failed: {doc}: {resp['error']}")
            self.expected.append(json.dumps(resp["record"], sort_keys=True))
        self.attempted, self.failed = counted  # prewarm is set-up, not load
        svc.stats.reset()
        self.doc_bytes = [json.dumps(d).encode() for d in self.docs]
        self.reply_tail: dict[int, bytes] = {}

    def next_index(self, issued: int) -> int:
        return self.rng.randrange(len(self.docs))

    def check_reply(self, index: int, line: bytes, rest: bytes) -> None:
        """The first reply per document is parsed and its record compared
        byte for byte with the prewarmed record; every later reply must
        then repeat that reply's bytes exactly."""
        self.attempted += 1
        known = self.reply_tail.get(index)
        if known is not None:
            if rest != known:
                self.failed += 1
                self.problem(f"hit reply for document {index} changed")
            return
        reply = json.loads(line)
        if (reply.get("outcome") != "hit" or not reply.get("ok")
                or json.dumps(reply["record"], sort_keys=True) != self.expected[index]):
            self.failed += 1
            self.problem(f"hit reply for document {index} differs from the prewarmed record")
            return
        self.reply_tail[index] = rest

    def reconcile(self) -> None:
        s = self.svc.stats
        served = self.attempted - self.attempted_before
        if not (s.reconciled() and s.requests == served and s.counts["hit"] == served):
            self.problem(f"service stats do not reconcile: {s.as_dict()}")
        if s.counts["miss"] or s.pool_points:
            self.problem(f"hit workload reached the pool: {s.as_dict()}")

    def verify(self) -> None:
        target = resolve_target("request")
        for index in self.rng.sample(range(len(self.docs)), 16):
            record = target(self.docs[index])
            if json.dumps(record, sort_keys=True) != self.expected[index]:
                self.problem(f"recomputed record differs for document {index}")


class ServeMiss(ServeWorkload):
    """Every request is a distinct document computed by the pool."""

    name = "serve_miss"
    setups = 15
    outstanding = 16

    def config(self, store_dir) -> ServiceConfig:
        return ServiceConfig(store_dir=str(store_dir), workers=2)

    def template(self) -> list[dict]:
        """One document per (chain, workload, p) of the registry's
        declared spaces, with the entry's default arguments where the
        entry supports them at that p (else its first supported point).
        Fixing the arguments keeps a round's compute the same on every
        seed; the seed draws the data seeds and the order."""
        slots = []
        for chain, model in MISS_CHAINS:
            for w in registry.iter_workloads():
                if w.model != model:
                    continue
                by_p: dict[int, list[dict]] = {}
                for pt in w.points():
                    by_p.setdefault(pt["p"], []).append(pt)
                defaults = {k: v for k, v in w.defaults.items() if k != "p"}
                for p, pts in sorted(by_p.items()):
                    args = [{k: v for k, v in pt.items() if k not in ("p", "seed")}
                            for pt in pts]
                    chosen = defaults if defaults in args else args[0]
                    slots.append({"chain": chain, "workload": w.name, "p": p,
                                  "args": chosen})
        return slots

    async def prepare(self, svc) -> None:
        self.slots = self.template()
        self.round_size = len(self.slots)
        # Per slot, a seeded order of data seeds: round r uses the r-th,
        # so every document of a run is distinct.
        rng = self.setup_rng()
        self.data_seeds = [rng.sample(range(64), 64) for _ in self.slots]
        self.stream: list[dict] = []
        self.doc_bytes: list[bytes] = []
        self.served: dict[int, dict] = {}

    def next_index(self, issued: int) -> int:
        r, i = divmod(issued, self.round_size)
        if i == 0:
            self.order = self.rng.sample(range(self.round_size), self.round_size)
        slot = self.order[i]
        doc = dict(self.slots[slot], seed=self.data_seeds[slot][r % 64])
        self.stream.append(doc)
        self.doc_bytes.append(json.dumps(doc).encode())
        return len(self.stream) - 1

    def check_reply(self, index: int, line: bytes, rest: bytes) -> None:
        reply = json.loads(line)
        doc = self.stream[index]
        if reply.get("outcome") != "miss":
            self.problem(f"expected a miss, got {reply.get('outcome')}")
        passed = self.check_outcome(doc, reply.get("ok"), reply.get("record"),
                                    reply.get("error"))
        if passed and reply.get("ok") and index < self.round_size:
            # Keep the first round's records for verify(): the benchmark's
            # memory must not grow with the requests served.
            self.served[index] = reply["record"]

    def reconcile(self) -> None:
        s = self.svc.stats
        served = self.attempted - self.attempted_before
        if not (s.reconciled() and s.requests == served and s.counts["miss"] == served):
            self.problem(f"service stats do not reconcile: {s.as_dict()}")
        if s.pool_points != len({canonical_json(d) for d in self.stream}):
            self.problem(f"pool_points {s.pool_points} != distinct documents")

    def verify(self) -> None:
        target = resolve_target("request")
        for index in self.rng.sample(sorted(self.served), min(16, len(self.served))):
            record = target(self.stream[index])
            if json.dumps(record, sort_keys=True) != json.dumps(
                    self.served[index], sort_keys=True):
                self.problem(f"recomputed record differs: {self.stream[index]}")


class SweepRoute(Workload):
    """Repeated ``run_campaign`` calls over one seeded routing grid."""

    name = "sweep_route"

    def build(self) -> tuple:
        """Build the grid: dense (sample sort's all-to-all) and sparse
        (bitonic sort's pairwise exchanges) multiport hypercube points at
        mixed p and sizes; the seed draws the data seed.  Returns the
        spec, its points and a fresh store root."""
        spec = CampaignSpec(
            name=f"sweep-{self.seed}",
            target="request",
            base={"chain": "bsp-on-network"},
            grid={"workload": ("sample-sort", "bitonic-sort"),
                  "p": (64, 128),
                  "args": ({"keys_per_proc": 1}, {"keys_per_proc": 2})},
            seeds=(self.setup_rng().randrange(8),),
        )
        points = spec.points()
        clear_fingerprint_cache()
        code_fingerprint()  # every point key folds in the source fingerprint
        store_root = self.fresh_dir()
        store_root.mkdir(parents=True)
        return spec, points, store_root

    def setup(self) -> None:
        self.spec, self.points, self.store_root = self.timed_build()

    def measure(self, seconds: float, tracer=None) -> float:
        import repro.campaign.runner as runner

        if tracer is not None:
            tracer.reset()
        latencies = array("d")
        start = now()
        deadline = start + int(seconds * 1e9)
        while now() < deadline:
            self.issued += 1
            t0 = now()
            report = runner.run_campaign(
                self.spec, store_dir=self.store_root / str(self.issued), parallel=2)
            latencies.append((now() - t0) / 1e9)
            self.check_report(report)
            if tracer is None:
                self.timed_build()
        elapsed = (now() - start) / 1e9
        self.latencies += latencies
        self.figures = document_figures(latencies, [0] * len(latencies), len(self.points))
        if tracer is not None:
            busy = tracer.counts["pool.busy_ns"]
            capacity = tracer.counts["pool.capacity_ns"]
            pool_self = tracer.self_ns["pool.call"]
            compute = busy / capacity * pool_self if capacity else 0
            rows = {"campaign.self": tracer.self_ns["campaign.run"],
                    "store.append": tracer.self_ns["store.append"],
                    "pool.transit": pool_self - compute,
                    "pool.compute": compute}
            total = sum(latencies) * 1e9
            self.layers["campaigns"] = [len(latencies), total, layer_table(rows, total)]
            self.windows["primary"] = tracer.take(len(latencies) * len(self.points))
        return elapsed

    def check_report(self, report) -> None:
        entries = report.entries
        keys = [e["key"] for e in entries]
        if len(set(keys)) != len(keys) or not report.ran == len(entries) == len(self.points):
            self.problem(f"campaign landed {len(entries)} entries for "
                         f"{len(self.points)} points ({report.ran} ran)")
        digests = []
        for entry, doc in zip(entries, self.points):
            ok = entry.get("status") == "ok"
            if entry.get("status") == "crashed":
                self.problem(f"crashed point: {doc}")
            self.check_outcome(doc, ok, entry.get("record"), entry.get("error"))
            digests.append(digest(entry["record"]) if ok else entry.get("status"))
        if not hasattr(self, "first"):
            self.first = digests
            self.first_records = [e.get("record") for e in entries]
        elif digests != self.first:
            self.problem("a repeated campaign's records differ from the first")

    def verify(self) -> None:
        """The pool's records must match an in-process run byte for byte
        and agree with the ``tick`` reference kernel: records on this
        chain carry no cost check, so the oracle is their reference."""
        target = resolve_target("request")
        for doc, record in zip(self.points, self.first_records):
            if json.dumps(target(doc), sort_keys=True) != json.dumps(record, sort_keys=True):
                self.problem(f"in-process record differs from the pool's: {doc}")
            oracle = dict(target(dict(doc, kernel="tick")), request=record["request"])
            if oracle != record:
                self.problem(f"record differs from the tick reference kernel: {doc}")


class Stack3Layer(Workload):
    """In-process ``RunRequest -> build_stack -> Stack.run`` on the
    three-layer chain, cycling a seeded list."""

    name = "stack_3layer"
    SHAPES = (("sample-sort", 16, {"keys_per_proc": 32}),
              ("sample-sort", 32, {"keys_per_proc": 16}),
              ("sample-sort", 32, {"keys_per_proc": 32}),
              ("jacobi", 16, {"n": 96}),
              ("jacobi", 32, {"n": 96}),
              ("jacobi", 32, {"n": 192}),
              ("bitonic-sort", 16, {"keys_per_proc": 8}),
              ("bitonic-sort", 16, {"keys_per_proc": 16}))

    def build(self) -> list[dict]:
        rng = self.setup_rng()
        docs = [{"chain": "bsp-on-logp-on-network", "workload": w, "p": p,
                 "args": args, "seed": rng.randrange(8)}
                for w, p, args in self.SHAPES]
        rng.shuffle(docs)
        for doc in docs:
            # Validate against the registry and assemble once, so a
            # document that cannot run fails before the timed loop.
            request_api.build_stack(RunRequest.from_dict(doc))
        return docs

    def setup(self) -> None:
        self.docs = self.timed_build()
        self.round_size = len(self.docs)
        self.seen: dict[int, str] = {}
        self.first_records: dict[int, dict] = {}

    def measure(self, seconds: float, tracer=None) -> float:
        if tracer is not None:
            tracer.reset()
        latencies = array("d")
        docs = array("i")
        start = now()
        deadline = start + int(seconds * 1e9)
        i = 0
        while now() < deadline or i % self.round_size:
            index = i % self.round_size
            doc = self.docs[index]
            t0 = now()
            try:
                stack = request_api.build_stack(RunRequest.from_dict(doc))
                result = stack.run()
            except Exception as exc:  # noqa: BLE001 — a failed operation
                result, error = None, f"{type(exc).__name__}: {exc}"
            latencies.append((now() - t0) / 1e9)
            docs.append(index)
            i += 1
            if result is None:
                self.check_outcome(doc, False, None, error)
            else:
                record = stack_record(result, stack)
                if self.check_outcome(doc, True, record, None):
                    self.first_records.setdefault(index, record)
                    d = digest(record)
                    if self.seen.setdefault(index, d) != d:
                        self.problem(f"repeated run differs: {doc}")
            if tracer is None:
                self.timed_build()
        elapsed = (now() - start) / 1e9
        self.latencies += latencies
        self.figures = document_figures(latencies, docs)
        if tracer is not None:
            window = tracer.take(len(latencies))
            total = sum(latencies) * 1e9
            self.layers["stack runs"] = [len(latencies), total, compute_rows(window, total)]
            self.windows["primary"] = window
        return elapsed

    def verify(self) -> None:
        """Records built from the timed runs must match the shared
        ``request`` target's records byte for byte."""
        target = resolve_target("request")
        for index in self.rng.sample(range(self.round_size), 2):
            record = target(self.docs[index])
            if json.dumps(record, sort_keys=True) != json.dumps(
                    self.first_records.get(index), sort_keys=True):
                self.problem(f"record differs from the request target's: {self.docs[index]}")


#: Layers of one point's compute, as spans nest inside it.
COMPUTE_LAYERS = ("request.parse", "engine.build_stack", "engine.run",
                  "bsp.driver", "bsp.machine", "logp.machine",
                  "network.delivery", "route")


def compute_rows(window, total_ns: float) -> list[tuple]:
    return layer_table({k: window.self_ns[k] for k in COMPUTE_LAYERS}, total_ns)


class Ledger:
    """Record digests by document, kept across runs in one checkout: a
    document must give the same digest on every run of the same source.
    The file is named after the fingerprints of the program's and the
    benchmark's sources, so a commit that changes a record starts its
    own ledger instead of failing against another commit's.  It is read
    only after the timed loop, so its size never shows in
    ``peak_rss_mb``."""

    def __init__(self, state: Path) -> None:
        own = code_fingerprint(Path(__file__).resolve().parent)
        self.path = state / f"digests-{code_fingerprint()[:16]}-{own[:8]}.json"
        self.checked = self.added = 0

    def settle(self, wl: Workload) -> None:
        known: dict[str, str] = {}
        if self.path.exists():
            try:
                known = json.loads(self.path.read_text())
            except ValueError:
                known = {}  # a torn ledger starts over
        for doc, value in wl.digests.items():
            before = known.setdefault(doc, value)
            if before is value:
                self.added += 1
                continue
            self.checked += 1
            if before != value:
                wl.failed += 1
                wl.problem(f"document {doc}: record differs from an earlier run")
        self.path.write_text(json.dumps(known))


WORKLOADS = {w.name: w for w in (ServeHit, ServeMiss, SweepRoute, Stack3Layer)}


def rank(n: int, pct: int) -> int:
    """Nearest rank (1-based) of the ``pct`` percentile of ``n`` samples."""
    return max(1, -(-pct * n // 100))


def percentile(values, pct: int) -> float:
    return sorted(values)[rank(len(values), pct) - 1]


def tail(latencies) -> tuple[int, float, int]:
    """The highest of p50/p75/p90/p95/p99 with at least ten samples above
    it (nearest rank), else p50; returns ``(percentile, value, samples
    above)``."""
    ordered = sorted(latencies)
    n = len(ordered)
    best = 50
    for pct in (75, 90, 95, 99):
        if n - rank(n, pct) >= 10:
            best = pct
    return best, ordered[rank(n, best) - 1], n - rank(n, best)


def fast(values, higher: bool = False) -> float:
    """The fast decile of repeated measurements of the same work: the
    10th percentile of times, or the 90th of rates (nearest rank; the
    best one when there are fewer than ten).

    The host slows this process in bursts of tens to hundreds of
    milliseconds, by up to 1.7x, and the share of time in bursts moves
    between runs.  A median follows that share; the fast decile of many
    repeats reads the work with the bursts left out, and repeats much
    more closely from run to run."""
    return percentile(values, 90 if higher else 10)


def round_figures(start: int, done, latencies, k: int) -> tuple:
    """Figures of a closed loop with several operations outstanding,
    taken per round of ``k`` completions (a round lasts from the previous
    round's last reply to its own).  Throughput and p50 are the fast
    decile over the rounds.  The tail is the median over the rounds: it
    is there to show the slow requests (GC pauses, queueing behind a
    slow one, host bursts), nearly every round has some, and a round
    without any is too rare to read steadily."""
    bounds = [start, *done[k - 1::k]]
    rounds = []
    for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
        chunk = latencies[i * k:(i + 1) * k]
        rounds.append((k * 1e9 / (b - a), percentile(chunk, 50), tail(chunk)))
    pct, _, above = rounds[0][2]
    return (fast([r[0] for r in rounds], higher=True), fast([r[1] for r in rounds]),
            pct, statistics.median(r[2][1] for r in rounds), above,
            f"taken per round of {k} requests over {len(rounds)} rounds: "
            f"throughput and p50 as the fast decile, the tail as the median")


def document_figures(latencies, docs, per_op: int = 1) -> tuple:
    """Figures of operations run one at a time: each operation is valued
    at the fast decile of its own document's latencies, and throughput,
    p50 and tail are taken over those values.  ``per_op`` counts the
    operations one latency covers (a campaign's grid points)."""
    by_doc: dict[int, list[float]] = {}
    for doc, lat in zip(docs, latencies):
        by_doc.setdefault(doc, []).append(lat)
    best = {doc: fast(lats) for doc, lats in by_doc.items()}
    values = [best[doc] for doc in docs]
    pct, tail_s, above = tail(values)
    return (len(values) * per_op / sum(values), percentile(values, 50), pct, tail_s, above,
            f"over {len(values)} operations, each valued at the fast decile "
            f"of its document's {len(values) // len(best)} runs")

