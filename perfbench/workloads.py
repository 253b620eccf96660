"""The benchmark's three workloads: inputs from a seed, timed work,
independent checks, and the per-layer fold of a traced run.

Each workload is a fixed list of operations made from the seed -- never
"as much as fits in N seconds" -- and its throughput is the candidates
of the whole list over the time of the whole list, for the two
screening workloads reported at the reference host speed of
:mod:`hostspeed`: between their timed operations they run reference
bursts, outside their time.

``w32_paper``
    The paper's configuration (width 32, HD 6, cascade
    1514/6056/12112, packed kernels): three Table-1 polynomials as
    one-candidate chunks plus seeded chunks of contiguous dense
    indices, through ``screen_chunk``.  The seeded chunks are drawn
    by class, so every seed times the same mix (see
    :class:`W32Paper`).  Weights 4/5 run on the
    sorted-key fallback (a 2**32-slot presence map does not fit), and
    witness extraction dominates.  Then, untimed, the width-32
    confirmation of 0xBA0DC66B, which fails today (see README.md).
``w16_table2``
    Table 2's machinery at width 16: the full canonical space at HD 6,
    cascade 40/90/135, through ``search_chunk`` in 1024-index chunks
    (small enough that weights 4/5 take the dense ``PositionMap``
    path), then ``census_of`` on the survivors.
``farm_w14``
    A width-14 campaign served by one ``WorkServer`` to two
    ``WorkClient`` workers over the in-process loopback transport,
    with checkpoints at the default cadence and the event log on.
    Its throughput is reported as measured: its time is three threads
    sharing the interpreter lock and two CPUs, which the one-thread
    reference bursts do not track.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import random
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field

import oracle
from repro.dist import checkpoint as dist_checkpoint
from repro.dist import net as dist_net
from repro.dist.transport import LoopbackConnection, LoopbackTransport
from repro.hd import hamming as hd_hamming
from repro.hd.cost import EnvelopeError
from repro.hd.packed import ValueSweep
from repro.obs.events import EventLog
from repro.search import batched as search_batched
from repro.search import census as search_census
from repro.search import exhaustive
from repro.search import packed as search_packed
from repro.search.exhaustive import SearchConfig
from repro.search.records import PolyRecord

from hostspeed import HostClock
from spans import Recorder

#: The paper's Table 1 breakpoints for the three polynomials the
#: width-32 workload screens: ``(longest data word, HD there)`` bands,
#: ascending, in Koopman's implicit-+1 notation.
TABLE1_BANDS: dict[int, list[tuple[int, int]]] = {
    0x82608EDB: [(268, 6), (2974, 5), (91607, 4)],  # IEEE 802.3
    0x8F6E37A0: [(5243, 6), (2147483615, 4)],  # Castagnoli
    0xBA0DC66B: [(16360, 6), (114663, 4)],  # Koopman
}

#: Seeded width-32 chunks of each class, each holding exactly one
#: canonical candidate.  A candidate with a weight-4 codeword at 1514
#: bits is killed there in ~0.3 s ("light", about one draw in five);
#: any other is killed at 1514 with weight 5 or at 6056 with weight 4
#: in ~4 s ("full").  Drawing a fixed count of each keeps the timed
#: mix the same on every seed.
W32_SEEDED = {"light": 1, "full": 3}
#: The class probe: stage 1 of the cascade, weights 2-4 only.
W32_PROBE = SearchConfig(
    width=32, target_hd=5, filter_lengths=(1514,), backend="packed"
)
#: Reference bursts before each timed width-32 chunk.
W32_BURSTS = 4

W16_CHUNK_INDICES = 1024
#: Kills re-proven by brute force to have no lighter codeword.
W16_SAMPLED_KILLS = 64

FARM_WIDTH = 14
FARM_CHUNK_SIZE = 32
FARM_WORKERS = 2
#: Chunks recomputed inline and compared record for record.
FARM_SAMPLED_CHUNKS = 8
#: Survivors re-proven HD >= 4 by brute force.
FARM_SAMPLED_SURVIVORS = 32

FARM_EVENT_METRICS = (
    "dist.turnaround_p50_ms",
    "dist.turnaround_p95_ms",
    "dist.coord_ms_per_chunk",
    "dist.idle_waits",
    "obs.events",
)

SWEEP = ("repro.hd.packed.ValueSweep.advance_to", "repro.hd.packed.ValueSweep.values")
W3 = ("repro.search.packed.composite_from_values", "repro.search.packed.weight3_rows_packed")
W4 = ("repro.search.packed.weight4_exists",)
W5 = ("repro.search.packed.weight5_exists",)
WITNESS = (
    "repro.search.batched.windowed_witness",
    "repro.search.batched.find_witness",
    "repro.search.packed.weight3_witnesses_packed",
)
EXACT = ("repro.hd.hamming.exists_weight_k", "repro.hd.hamming.windowed_witness")
SCREEN = "repro.search.exhaustive.screen_chunk"
CONFIRM = "repro.search.exhaustive.confirm_survivor"
CENSUS = "repro.search.census.census_of"
COMPUTE = "repro.dist.net.search_chunk"
SAVE = "repro.dist.checkpoint.save"
CRC = "repro.dist.checkpoint.crc_slice4"


class CheckFailed(Exception):
    """An output disagreed with an independent computation."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Timed:
    """What a workload's timed operations produced."""

    candidates: int = 0
    seconds: float = 0.0
    #: The host's slowdown against the reference speed over the run
    #: (:mod:`hostspeed`); 1 where the throughput is reported as measured.
    slowdown: float = 1.0
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    kills: list[PolyRecord] = field(default_factory=list)
    survivors: int = 0
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def raw_cand_per_s(self) -> float:
        return self.candidates / self.seconds

    @property
    def cand_per_s(self) -> float:
        """Throughput at the reference host speed."""
        return self.raw_cand_per_s * self.slowdown


def instrument(recorder: Recorder) -> None:
    """Wrap every public function a per-layer metric is read from."""
    for owner, attr in (
        (exhaustive, "screen_chunk"),
        (exhaustive, "confirm_survivor"),
        (search_census, "census_of"),
        (search_packed, "composite_from_values"),
        (search_packed, "weight3_rows_packed"),
        (search_packed, "weight3_witnesses_packed"),
        (search_packed, "weight4_exists"),
        (search_packed, "weight5_exists"),
        (search_batched, "windowed_witness"),
        (search_batched, "find_witness"),
        (hd_hamming, "exists_weight_k"),
        (hd_hamming, "windowed_witness"),
        (dist_checkpoint, "crc_slice4"),
    ):
        recorder.wrap(owner, attr, f"{owner.__name__}.{attr}")
    for attr in ("advance_to", "values"):
        recorder.wrap(ValueSweep, attr, f"repro.hd.packed.ValueSweep.{attr}")
    recorder.wrap(
        dist_net, "search_chunk", COMPUTE,
        attrs=lambda config, start, end, **_: {"start": start},
    )
    recorder.wrap(
        dist_checkpoint, "save", SAVE,
        after=lambda path, *_, **__: {"bytes": os.path.getsize(path)},
    )
    recorder.count(
        LoopbackConnection, "send_raw",
        lambda conn, data: {"frames": 1, "frame_bytes": len(data)},
    )


def fold_layers(recorder: Recorder, timed: Timed, config: SearchConfig) -> dict[str, float]:
    """The per-layer metrics of a traced run (zero where a workload
    does not reach a layer)."""
    stage_of = {n: i + 1 for i, n in enumerate(config.filter_lengths)}
    saves = recorder.named(SAVE)
    out = {
        "traced.cand_per_s": timed.cand_per_s,
        "host.slowdown": timed.slowdown,
        "search.screen_s": recorder.seconds(SCREEN),
        "search.confirm_s": recorder.seconds(CONFIRM),
        "search.census_s": recorder.seconds(CENSUS),
        "search.driver_s": recorder.self_seconds(SCREEN),
        "search.candidates": timed.candidates,
        "search.survivors": timed.survivors,
        "hd.sweep_s": recorder.seconds(*SWEEP),
        "hd.w3_s": recorder.seconds(*W3),
        "hd.w4_s": recorder.seconds(*W4),
        "hd.w5_s": recorder.seconds(*W5),
        "hd.witness_s": recorder.seconds(*WITNESS),
        "hd.witness_calls": recorder.calls(*WITNESS),
        "hd.exact_s": recorder.seconds(*EXACT),
        "dist.compute_s": recorder.seconds(COMPUTE),
        "dist.checkpoint_s": recorder.seconds(SAVE),
        "dist.checkpoints": len(saves),
        "dist.checkpoint_mb": sum(s.attrs.get("bytes", 0) for s in saves) / 1e6,
        "crc.checkpoint_crc_s": recorder.seconds(CRC),
        "dist.frames": recorder.counters["frames"],
        "dist.frame_kb": recorder.counters["frame_bytes"] / 1e3,
    }
    out.update(dict.fromkeys(
        [f"search.kills.s{i}" for i in (1, 2, 3)]
        + [f"search.kills.w{k}" for k in (2, 3, 4, 5)],
        0,
    ))
    # read off the farm's event log; the other workloads keep no log
    out.update(dict.fromkeys(FARM_EVENT_METRICS, 0.0))
    for rec in timed.kills:
        if rec.filtered_at_bits in stage_of:
            out[f"search.kills.s{stage_of[rec.filtered_at_bits]}"] += 1
            out[f"search.kills.w{rec.hd}"] += 1
    out.update(timed.layers)
    return out


def check_kills(kills: list[PolyRecord], width: int) -> None:
    """Every kill's witness is a codeword of its recorded weight inside
    the stage's codeword, and no (x+1)-divisible polynomial is killed
    at an odd weight (its codewords all have even weight)."""
    for rec in kills:
        check(
            rec.filtered_at_bits is not None,
            f"{rec.poly:#x} passed every cascade stage but confirmed at HD "
            f"{rec.hd}",
        )
        n_bits = rec.filtered_at_bits + width
        wit = tuple(rec.witness or ())
        check(
            len(wit) == rec.hd and oracle.is_codeword(rec.poly, wit, n_bits),
            f"{rec.poly:#x}: witness {wit} is not a weight-{rec.hd} "
            f"codeword of {n_bits} bits",
        )
        check(
            not (oracle.divisible_by_x_plus_1(rec.poly) and rec.hd % 2),
            f"{rec.poly:#x} is divisible by (x+1) but killed at odd "
            f"weight {rec.hd}",
        )


def canonical_in(width: int, start: int, end: int) -> int:
    return sum(
        oracle.is_canonical((1 << width) | (i << 1) | 1, width)
        for i in range(start, end)
    )


# -- w32_paper ---------------------------------------------------------


def paper_hd(koopman: int, n: int) -> int:
    """HD at data-word length ``n`` per the paper's Table 1 bands."""
    for limit, hd in TABLE1_BANDS[koopman]:
        if n <= limit:
            return hd
    raise ValueError(f"{koopman:#x}: no band covers {n} bits")


def table1_poly(koopman: int) -> int:
    """Canonical full encoding (the reciprocal has identical weights)."""
    full = (koopman << 1) | 1
    return min(full, oracle.reciprocal(full, 32))


class Workload:
    """Set-up is construction; then :meth:`run` (timed), :meth:`after`
    (untimed, once peak RSS is read), :meth:`check` and :meth:`close`."""

    name: str
    config: SearchConfig
    #: Reference bursts taken between the timed operations, or None
    #: where the throughput is reported as measured.
    clock: HostClock | None = None
    #: Set for a traced run.
    recorder: Recorder | None = None

    def untraced(self) -> contextlib.AbstractContextManager:
        """A block whose calls stay out of the per-layer metrics."""
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.dropped()

    def run(self) -> Timed:
        raise NotImplementedError

    def after(self, timed: Timed) -> None:
        """Operations that must stay outside the timed work."""

    def check(self, timed: Timed) -> None:
        raise NotImplementedError

    def event_layers(self, recorder: Recorder) -> dict[str, float]:
        """Per-layer metrics read off the workload's event log."""
        return {}

    def close(self) -> None:
        """Release what set-up made."""


class W32Paper(Workload):
    """The three Table-1 polynomials, then seeded one-candidate chunks
    drawn by class.  Each draw starts at a uniform index of the 2**31
    space and runs up to its first canonical candidate.  Untimed, the
    class probe (:data:`W32_PROBE`) screens it at 1514 bits for
    weights 2-4: a kill makes it "light", a survivor "full".  Draws are
    taken in seed order until :data:`W32_SEEDED` holds, and only the
    taken ones are screened with the timed cascade; the surplus draws
    are probed and checked but not timed or counted."""

    name = "w32_paper"

    def __init__(self, seed: int) -> None:
        self.config = SearchConfig.for_bits(32, 6, 12112, backend="packed")
        self.table1 = {k: table1_poly(k) for k in TABLE1_BANDS}
        # a candidate's dense index is its coefficients of x^1 .. x^31
        self.chunks = [
            (i, i + 1)
            for i in ((p >> 1) & ((1 << 31) - 1) for p in self.table1.values())
        ]
        self.rng = random.Random(seed)
        self.seeded_class: dict[tuple[int, int], str] = {}
        self.probes: list = []
        self.clock = HostClock()
        # Warm-up: every lazily imported kernel path, at a short length.
        warm = SearchConfig.for_bits(32, 6, 256, backend="packed")
        exhaustive.screen_chunk(warm, *self.chunks[-1])
        self.results: list = []

    def draw(self) -> tuple[int, int]:
        """From a uniform start up to the first canonical candidate.
        The top index (every coefficient set) is a palindrome, so the
        walk always ends inside the space."""
        start = end = self.rng.randrange(1 << 31)
        while not oracle.is_canonical((1 << 32) | (end << 1) | 1, 32):
            end += 1
        return start, end + 1

    def screen(self, timed: Timed, start: int, end: int) -> None:
        self.clock.sample(W32_BURSTS)
        t0 = time.perf_counter()
        res = exhaustive.screen_chunk(self.config, start, end)
        timed.seconds += time.perf_counter() - t0
        self.results.append(res)
        timed.candidates += res.examined
        timed.survivors += len(res.survivors)
        timed.kills += [r for r in res.records if r is not None]

    def run(self) -> Timed:
        timed = Timed()
        for start, end in self.chunks:
            self.screen(timed, start, end)
        wanted = dict(W32_SEEDED)
        while any(wanted.values()):
            chunk = self.draw()
            with self.untraced():
                probe = exhaustive.screen_chunk(W32_PROBE, *chunk)
            self.probes.append(probe)
            kind = "full" if probe.survivors else "light"
            if not wanted[kind]:
                continue
            wanted[kind] -= 1
            self.seeded_class[chunk] = kind
            self.chunks.append(chunk)
            self.screen(timed, *chunk)
        self.clock.sample(W32_BURSTS)
        timed.attempted = len(self.chunks)
        return timed

    def after(self, timed: Timed) -> None:
        """The width-32 confirmation of the Table-1 survivor, outside
        the timed work: counted as failed while it raises."""
        timed.attempted += 1
        g = self.table1[0xBA0DC66B]
        syn = next(
            (s for res in self.results for _, p, s in res.survivors if p == g),
            None,
        )
        check(syn is not None, "0xba0dc66b should survive 12112 bits")
        try:
            rec = exhaustive.confirm_survivor(g, self.config, syn=syn)
        except EnvelopeError:
            timed.failed += 1
            return
        check(rec.survived and rec.hd >= 6, f"{g:#x}: confirmed HD {rec.hd} < 6")

    def check(self, timed: Timed) -> None:
        for (start, end), res in zip(self.chunks, self.results):
            expected = canonical_in(32, start, end)
            check(
                res.examined == expected == len(res.records),
                f"chunk [{start}, {end}): examined {res.examined}, "
                f"expected {expected}",
            )
        check_kills(timed.kills, 32)
        probe_kills = [r for res in self.probes for r in res.records if r is not None]
        check_kills(probe_kills, 32)
        by_poly = {r.poly: r for r in timed.kills}
        for chunk, res in zip(self.chunks, self.results):
            if chunk not in self.seeded_class:
                continue
            light = all(
                r is not None and r.filtered_at_bits == 1514 and r.hd <= 4
                for r in res.records
            )
            check(
                light == (self.seeded_class[chunk] == "light"),
                f"chunk {chunk}: the 1514-bit probe and the cascade disagree "
                "on a weight-4 codeword",
            )
        survivors = {p for res in self.results for _, p, _ in res.survivors}
        for koopman, g in self.table1.items():
            kill_at = next(
                (n for n in self.config.filter_lengths if paper_hd(koopman, n) < 6),
                None,
            )
            if kill_at is None:
                check(g in survivors, f"{koopman:#x} should survive 12112 bits")
                continue
            rec = by_poly.get(g)
            check(
                rec is not None
                and rec.filtered_at_bits == kill_at
                and rec.hd == paper_hd(koopman, kill_at),
                f"{koopman:#x}: expected a weight-{paper_hd(koopman, kill_at)} "
                f"kill at {kill_at} bits, got {rec}",
            )


# -- w16_table2 --------------------------------------------------------


class W16Table2(Workload):
    name = "w16_table2"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.config = SearchConfig(
            width=16, target_hd=6, filter_lengths=(40, 90, 135),
            confirm_weights=False, backend="packed",
        )
        space = 1 << 15
        self.chunks = [
            (s, min(s + W16_CHUNK_INDICES, space))
            for s in range(0, space, W16_CHUNK_INDICES)
        ]
        self.clock = HostClock()
        exhaustive.search_chunk(self.config, 0, 64)  # warm-up
        self.results: list = []
        self.census = None

    def run(self) -> Timed:
        timed = Timed()
        survivors: list[PolyRecord] = []
        for start, end in self.chunks:
            self.clock.sample()
            t0 = time.perf_counter()
            res = exhaustive.search_chunk(self.config, start, end)
            timed.seconds += time.perf_counter() - t0
            self.results.append(res)
            timed.candidates += res.examined
            survivors += res.survivors
            timed.kills += [r for r in res.records if not r.survived]
        self.clock.sample()
        t0 = time.perf_counter()
        self.census = search_census.census_of(survivors)
        timed.seconds += time.perf_counter() - t0
        self.clock.sample()
        timed.survivors = len(survivors)
        timed.attempted = len(self.chunks) + 1
        return timed

    def check(self, timed: Timed) -> None:
        width = self.config.width
        final = self.config.final_length
        check(
            timed.candidates == oracle.canonical_count(width),
            f"examined {timed.candidates}, closed form "
            f"{oracle.canonical_count(width)}",
        )
        for (start, end), res in zip(self.chunks, self.results):
            check(
                res.examined == canonical_in(width, start, end) == len(res.records),
                f"chunk [{start}, {end}) examined {res.examined}",
            )
        check_kills(timed.kills, width)
        survivors = [r for res in self.results for r in res.survivors]
        check(
            self.census.total == len(survivors)
            and sum(self.census.counts.values()) == len(survivors),
            "census does not classify every survivor exactly once",
        )
        for rec in survivors:
            lighter = oracle.lightest_codeword(rec.poly, final + width, 6)
            check(lighter is None, f"survivor {rec.poly:#x} has codeword {lighter}")
            check(
                oracle.divisible_by_x_plus_1(rec.poly),
                f"survivor {rec.poly:#x} is not divisible by (x+1)",
            )
        rng = random.Random(self.seed)
        for rec in rng.sample(timed.kills, min(W16_SAMPLED_KILLS, len(timed.kills))):
            lighter = oracle.lightest_codeword(
                rec.poly, rec.filtered_at_bits + width, rec.hd
            )
            check(
                lighter is None,
                f"{rec.poly:#x} killed at weight {rec.hd} but has lighter "
                f"codeword {lighter} at {rec.filtered_at_bits} bits",
            )


# -- farm_w14 ----------------------------------------------------------


class FarmW14(Workload):
    name = "farm_w14"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.config = SearchConfig.for_bits(FARM_WIDTH, 4, 300, backend="packed")
        self.workdir = workdir
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        self.checkpoint = os.path.join(workdir, "farm.ckpt")
        self.events_path = os.path.join(workdir, "events.jsonl")
        self.events = EventLog(self.events_path)
        self.transport = LoopbackTransport()
        # `repro serve --checkpoint --events` and `repro work` defaults.
        self.server = dist_net.WorkServer(
            self.config,
            FARM_CHUNK_SIZE,
            self.transport,
            lease_duration=30.0,
            max_attempts=5,
            checkpoint_path=self.checkpoint,
            checkpoint_every=8,
            drain_grace=5.0,
            progress_interval=10.0,
            events=self.events,
            handle_signals=False,
        )
        self.clients = [
            dist_net.WorkClient(
                "loopback:0", self.transport, f"bench-w{i}", host=f"bench{i}"
            )
            for i in range(FARM_WORKERS)
        ]
        exhaustive.search_chunk(self.config, 0, FARM_CHUNK_SIZE)  # warm-up

    def run(self) -> Timed:
        async def serve() -> tuple[int, float]:
            t0 = time.perf_counter()
            rc = await self.server.serve()
            return rc, time.perf_counter() - t0

        async def farm() -> list:
            return await asyncio.gather(serve(), *[c.run() for c in self.clients])

        (rc, seconds), *client_rcs = asyncio.run(farm())
        self.events.close()
        check(rc == 0 and client_rcs == [0] * FARM_WORKERS,
              f"farm exit codes {rc}, {client_rcs}")
        campaign = self.server.campaign
        timed = Timed(
            candidates=campaign.candidates_examined,
            seconds=seconds,
            attempted=len(self.server.queue),
            failed=self.server.queue.quarantined,
            survivors=len(campaign.survivors),
            kills=[r for r in campaign.results.values() if not r.survived],
        )
        return timed

    def event_layers(self, recorder: Recorder) -> dict[str, float]:
        """Turnaround per chunk from the event log, minus the worker's
        compute span for the same chunk."""
        granted: dict[int, float] = {}
        turnaround: dict[int, float] = {}
        with open(self.events_path, encoding="utf-8") as f:
            lines = f.readlines()
        for line in lines:
            ev = json.loads(line)
            if ev["event"] == "lease.grant":
                granted.setdefault(ev["chunk"], ev["t"])
            elif ev["event"] == "chunk.done" and not ev.get("duplicate"):
                turnaround[ev["chunk"]] = ev["t"] - granted[ev["chunk"]]
        compute = {
            s.attrs["start"] // FARM_CHUNK_SIZE: s.seconds
            for s in recorder.named(COMPUTE)
        }
        times = sorted(turnaround.values())
        q = statistics.quantiles(times, n=20, method="inclusive")
        coord = [turnaround[c] - compute.get(c, 0.0) for c in turnaround]
        return {
            "dist.turnaround_p50_ms": statistics.median(times) * 1e3,
            "dist.turnaround_p95_ms": q[18] * 1e3,
            "dist.coord_ms_per_chunk": statistics.fmean(coord) * 1e3,
            "dist.idle_waits": sum(c.stats.idle_waits for c in self.clients),
            "obs.events": len(lines),
        }

    def check(self, timed: Timed) -> None:
        server, campaign = self.server, self.server.campaign
        chunks = len(server.queue)
        check(
            campaign.candidates_examined == oracle.canonical_count(FARM_WIDTH),
            f"examined {campaign.candidates_examined}, closed form "
            f"{oracle.canonical_count(FARM_WIDTH)}",
        )
        check(
            len(campaign.results) == campaign.candidates_examined,
            f"{len(campaign.results)} records for "
            f"{campaign.candidates_examined} candidates",
        )
        with open(self.events_path, encoding="utf-8") as f:
            done = [
                ev["chunk"]
                for ev in map(json.loads, f)
                if ev["event"] == "chunk.done"
            ]
        check(
            campaign.chunks_done == set(range(chunks))
            and sorted(done) == list(range(chunks))
            and server.stats.completions == chunks
            and server.stats.duplicate_deliveries == 0,
            "a chunk was not merged exactly once",
        )
        check_kills(timed.kills, FARM_WIDTH)
        rng = random.Random(self.seed)
        survivors = campaign.survivors
        for rec in rng.sample(survivors, min(FARM_SAMPLED_SURVIVORS, len(survivors))):
            lighter = oracle.lightest_codeword(
                rec.poly, self.config.final_length + FARM_WIDTH, 4
            )
            check(lighter is None, f"survivor {rec.poly:#x} has codeword {lighter}")
        for chunk_id in sorted(rng.sample(range(chunks), FARM_SAMPLED_CHUNKS)):
            task = server.queue.task(chunk_id)
            res = exhaustive.search_chunk(
                self.config, task.start_index, task.end_index
            )
            check(
                all(campaign.results.get(r.poly) == r for r in res.records),
                f"chunk {chunk_id} differs from an inline recomputation",
            )
        loaded = dist_checkpoint.load(self.checkpoint, self.config, FARM_CHUNK_SIZE)
        check(
            loaded.campaign.to_json() == campaign.to_json(),
            "the final checkpoint does not reload equal to the record",
        )

    def close(self) -> None:
        self.events.close()
        shutil.rmtree(self.workdir, ignore_errors=True)
