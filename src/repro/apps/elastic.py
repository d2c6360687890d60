"""Elasticsearch application model — paper §VI-F / Fig. 9.

* :class:`Elasticsearch` — a functional sharded search engine: documents
  hash across shards, each shard holds an inverted tag index plus date
  and answer-count indexes, queries fan out to every shard and merge
  (sorted when the challenge asks for it). Per-operation thread pools
  queue requests like the real engine's ``search`` pool.
* :class:`ElasticsearchModel` — throughput model for the four reported
  "nested" challenges. A query's cost is per-shard work (scales down
  with more shards) plus a per-shard merge/coordination term (scales
  *up* with more shards — why sync-heavy challenges degrade when shards
  scale). Configurations enter through the CPI ratio of the search
  profile (pointer-chasing over postings — miss-heavy) and through the
  channel bandwidth bound for postings scans; the scale-out cluster has
  2× cores but pays inter-node coordination per query.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..mem.cache import AccessProfile
from ..perf.cpi import CpiModel
from ..testbed.configurations import (
    AccessEnvironment,
    MemoryConfigKind,
    make_environment,
)
from ..workloads.esrally import Challenge, NestedQuery, StackOverflowPost

__all__ = ["Elasticsearch", "ElasticsearchModel", "CHALLENGE_PROFILES"]


# --------------------------------------------------------------------------- #
# Functional layer                                                            #
# --------------------------------------------------------------------------- #
class _Shard:
    """One shard: a fully-functional independent index (§VI-F)."""

    def __init__(self, shard_id: int):
        self.shard_id = shard_id
        self.documents: Dict[int, StackOverflowPost] = {}
        self.tag_index: Dict[str, List[int]] = defaultdict(list)

    def index(self, post: StackOverflowPost) -> None:
        self.documents[post.doc_id] = post
        for tag in post.tags:
            self.tag_index[tag].append(post.doc_id)

    def by_tag(self, tag: str) -> List[int]:
        return list(self.tag_index.get(tag, ()))

    def answers_before(self, min_answers: int, date: int) -> List[int]:
        matches = []
        for post in self.documents.values():
            answered = sum(1 for d in post.answer_dates if d < date)
            if answered >= min_answers:
                matches.append(post.doc_id)
        return matches

    def all_ids(self) -> List[int]:
        return list(self.documents.keys())


class Elasticsearch:
    """Functional sharded engine with per-operation thread pools."""

    def __init__(self, shards: int = 5):
        if shards < 1:
            raise ValueError(f"shards must be >= 1: {shards}")
        self.shards = [_Shard(i) for i in range(shards)]
        self.indexed = 0
        self.thread_pool_queued: Dict[str, int] = defaultdict(int)
        self.thread_pool_completed: Dict[str, int] = defaultdict(int)

    def shard_of(self, doc_id: int) -> _Shard:
        return self.shards[doc_id % len(self.shards)]

    # -- indexing -------------------------------------------------------------------
    def index(self, post: StackOverflowPost) -> None:
        self.thread_pool_queued["write"] += 1
        self.shard_of(post.doc_id).index(post)
        self.indexed += 1
        self.thread_pool_completed["write"] += 1

    def index_many(self, posts: Sequence[StackOverflowPost]) -> None:
        for post in posts:
            self.index(post)

    # -- search ----------------------------------------------------------------------
    def search(self, query: NestedQuery) -> List[int]:
        """Fan out to every shard, merge, optionally sort by date."""
        self.thread_pool_queued["search"] += 1
        per_shard: List[List[int]] = []
        for shard in self.shards:
            if query.challenge is Challenge.RTQ:
                per_shard.append(shard.by_tag(query.tag))
            elif query.challenge is Challenge.RSTQ:
                per_shard.append(shard.by_tag(query.tag))
            elif query.challenge is Challenge.RNQIHBS:
                per_shard.append(
                    shard.answers_before(query.min_answers, query.before_date)
                )
            elif query.challenge is Challenge.MA:
                per_shard.append(shard.all_ids())
            else:  # pragma: no cover - future challenges
                raise ValueError(f"unknown challenge {query.challenge!r}")
        merged = [doc_id for shard_hits in per_shard for doc_id in shard_hits]
        if query.sort_by_date:
            merged.sort(
                key=lambda doc_id: self.shard_of(doc_id)
                .documents[doc_id]
                .created,
                reverse=True,
            )
        else:
            merged.sort()
        self.thread_pool_completed["search"] += 1
        return merged

    def document_count(self) -> int:
        return sum(len(shard.documents) for shard in self.shards)


# --------------------------------------------------------------------------- #
# Performance layer                                                           #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ChallengeProfile:
    """Calibrated cost structure of one nested-track challenge.

    Times are expressed for the LOCAL configuration at the reference
    shard count of 5; other configurations scale with the search
    profile's CPI ratio. ``query_bytes`` is the postings/doc-values
    volume one query streams (drives the channel bandwidth bound), and
    ``client_cap_qps`` is the 10 GbE client-path ceiling (dominant for
    match-all, whose responses are huge).
    """

    shard_seconds_local: float     #: per-shard work at 5 shards, local
    merge_seconds_local: float     #: per-shard merge/coordination cost
    query_bytes: float
    client_cap_qps: float
    scale_out_sync: float          #: extra coordination of the 2-node cluster


#: Lucene postings/doc-values scans are sequential and prefetch-friendly,
#: so the search path's LLC miss ratio is small — latency alone barely
#: separates the configurations; the *bandwidth* each query streams is
#: what differentiates them (single channel saturates first).
_SEARCH_PROFILE = AccessProfile(
    memory_instruction_fraction=0.35,
    llc_miss_ratio=0.0011,
    write_fraction=0.10,
    write_stall_factor=0.25,
)

CHALLENGE_PROFILES: Dict[Challenge, ChallengeProfile] = {
    # RTQ: cheap per-shard tag lookups at high QPS, but each query
    # streams ~100 MB of postings — the disaggregated channel is the
    # bottleneck, and scale-out (2x cores, little sync) wins outright.
    Challenge.RTQ: ChallengeProfile(
        shard_seconds_local=11.5e-3,
        merge_seconds_local=0.20e-3,
        query_bytes=95e6,
        client_cap_qps=5_000.0,
        scale_out_sync=0.10,
    ),
    # RNQIHBS: nested answer-count filter — heavy per-shard work, large
    # streamed volume, and a merge that grows with shards (throughput
    # degrades 5 -> 32); the 2-node cluster pays heavy coordination.
    Challenge.RNQIHBS: ChallengeProfile(
        shard_seconds_local=97e-3,
        merge_seconds_local=3.0e-3,
        query_bytes=451e6,
        client_cap_qps=500.0,
        scale_out_sync=0.80,
    ),
    # RSTQ: tag query + global date sort (merge-dominated at 32 shards).
    Challenge.RSTQ: ChallengeProfile(
        shard_seconds_local=55e-3,
        merge_seconds_local=3.2e-3,
        query_bytes=265e6,
        client_cap_qps=800.0,
        scale_out_sync=0.80,
    ),
    # MA: match-all streams everything back to the client — the 10 GbE
    # client path is the bottleneck, so every configuration converges.
    Challenge.MA: ChallengeProfile(
        shard_seconds_local=2.0e-3,
        merge_seconds_local=0.2e-3,
        query_bytes=1e6,
        client_cap_qps=1_900.0,
        scale_out_sync=0.03,
    ),
}

#: Shard count the profile's ``shard_seconds_local`` is calibrated at.
_REFERENCE_SHARDS = 5

#: Reference environment for CPI ratios.
_LOCAL_ENV = make_environment(MemoryConfigKind.LOCAL)


class ElasticsearchModel:
    """Analytic nested-track throughput under one configuration."""

    def __init__(
        self,
        environment: AccessEnvironment,
        shards: int,
        cpi: Optional[CpiModel] = None,
    ):
        if shards < 1:
            raise ValueError(f"shards must be >= 1: {shards}")
        self.environment = environment
        self.shards = shards
        self.cpi = cpi or CpiModel()

    def _cpi_ratio(self) -> float:
        """Search-path slowdown of this configuration vs local."""
        here = self.cpi.evaluate(_SEARCH_PROFILE, self.environment)
        local = self.cpi.evaluate(_SEARCH_PROFILE, _LOCAL_ENV)
        return here.total_cpi / local.total_cpi

    def query_cpu_seconds(self, challenge: Challenge) -> float:
        """Total CPU work of one query across all shards + merge."""
        profile = CHALLENGE_PROFILES[challenge]
        # The documents don't change with the shard count, so the total
        # per-shard scan work is constant; merge/coordination cost grows
        # linearly with shards — that is why the sync-heavy challenges
        # degrade when scaling 5 → 32 shards (§VI-F).
        total_shard_work = profile.shard_seconds_local * _REFERENCE_SHARDS
        merge_work = profile.merge_seconds_local * self.shards
        return (total_shard_work + merge_work) * self._cpi_ratio()

    def throughput_qps(self, challenge: Challenge) -> float:
        """Queries/s: soft-min of CPU, channel-bandwidth and client caps."""
        profile = CHALLENGE_PROFILES[challenge]
        env = self.environment
        cpu_seconds = self.query_cpu_seconds(challenge)
        cpu_cap = env.total_cores / cpu_seconds
        if env.kind is MemoryConfigKind.SCALE_OUT:
            cpu_cap /= 1.0 + profile.scale_out_sync
        bounds = [cpu_cap, profile.client_cap_qps]
        if env.remote_fraction > 0:
            remote_bytes = profile.query_bytes * env.remote_fraction
            if remote_bytes > 0:
                bounds.append(env.remote_bandwidth_bytes_s / remote_bytes)
        total = sum(bound ** -4.0 for bound in bounds)
        return total ** -0.25
