"""Seeded inputs for the end-to-end benchmark's four workloads.

Every workload draws its SQL texts from a fixed *universe* of instances,
and ``--seed`` picks which instances a run uses and in which order. The
universe is what ``expected.json`` covers, so the oracle answers are
precomputed for every seed, not only the ones used while the benchmark
was written; a text missing from the file (say, because the catalog
changed) is answered by the reference kernel at the end of the run.

The program receives only SQL text: relation choice, join wiring and
constants are decided here, through the public ``repro`` API.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace

import repro

#: Relations in the star-chain tail hanging off the last spoke (Figure 1.1).
STAR_CHAIN_TAIL = 4


@dataclass(frozen=True)
class Workload:
    """One traffic mix.

    Attributes:
        name: The workload's name in ``BENCHMARK.json``.
        technique: Optimizer every request runs with.
        schema: Catalog the SQL is written against.
        shapes: ``(topology, relation count)`` per query shape; empty for
            the TPC-H-lite templates.
        universe: Instances per shape (variants per template) any seed
            can draw.
        picked: Instances per shape (variants per template) one seed uses.
            Most of the universe, so the mix a run measures changes little
            from seed to seed: the spread of a seed's sample shrinks with
            the share of the universe it covers.
        open_loop: Served through a ``FrontDoor`` on a rate schedule
            instead of a one-client closed loop.
        pinned: Shape labels whose universe is one instance, the same
            for every seed.
    """

    name: str
    technique: str
    schema: str
    shapes: tuple[tuple[str, int], ...]
    universe: int
    picked: int
    open_loop: bool = False
    pinned: tuple[str, ...] = ()


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("tpch_sql", "SDP", "tpch-lite", (), universe=64, picked=48),
        Workload(
            "star_sdp",
            "SDP",
            "bench-wide-25",
            (
                ("star", 15),
                ("star", 20),
                ("star", 25),
                ("star-chain", 15),
                ("star-chain", 20),
            ),
            universe=32,
            # A run makes about 100 requests, 20 rounds over the shapes.
            picked=20,
            # Star-25 joins every relation of the 25-relation catalog; its
            # instances differ only in which hub column each spoke takes,
            # yet that moves SDP's memory by up to 1.7x (35-60 MB modeled
            # across 32 instances). The heaviest search sets the run's
            # peak RSS, so a seed-drawn star-25 would make the memory
            # metric a draw too.
            pinned=("star-25",),
        ),
        Workload(
            "dp_star",
            "DP",
            "bench-wide-25",
            (("star", 11), ("star", 12), ("star", 13)),
            universe=32,
            picked=24,
        ),
        Workload(
            "frontdoor_mix",
            "SDP",
            "paper-25",
            (
                ("star", 6),
                ("star", 8),
                ("star", 10),
                ("star", 12),
                ("star-chain", 8),
                ("star-chain", 10),
                ("star-chain", 12),
            ),
            universe=90,
            picked=45,
            open_loop=True,
        ),
    )
}

#: The test-suite smoke run: smaller shapes with the same topologies, and
#: a smaller front-door pool.
SMOKE: dict[str, dict] = {
    "star_sdp": {
        "shapes": (
            ("star", 6),
            ("star", 7),
            ("star", 8),
            ("star-chain", 7),
            ("star-chain", 8),
        )
    },
    "dp_star": {"shapes": (("star", 5), ("star", 6), ("star", 7))},
    "frontdoor_mix": {"picked": 10},
}


def workload(name: str, smoke: bool = False) -> Workload:
    """The named workload, shrunk for the smoke run when ``smoke``."""
    spec = WORKLOADS[name]
    return replace(spec, **SMOKE.get(name, {})) if smoke else spec


def build_schema(name: str) -> repro.Schema:
    """The catalog a workload's SQL is written against."""
    if name == "tpch-lite":
        return repro.tpch_lite_schema()
    if name == "paper-25":
        return repro.paper_schema(seed=0)
    if name == "bench-wide-25":
        # The paper's 24-column catalog cannot anchor a 25-relation star
        # (each spoke takes its own hub column), so the big stars use the
        # same wider catalog as the BENCH_optimize.json scale arms.
        return repro.SchemaBuilder(
            seed=0, relation_count=25, column_count=27, name="bench-wide-25"
        ).build()
    raise ValueError(f"unknown schema {name!r}")


# -- star and star-chain instances ---------------------------------------------


def _star_sql(schema: repro.Schema, topology: str, size: int, rng) -> str:
    if topology == "star":
        hub = schema.largest_relation().name
        rest = [name for name in schema.relation_names if name != hub]
        names = [hub, *rng.sample(rest, size - 1)]
        joins = repro.star_joins(schema, hub, names[1:])
    else:
        names = rng.sample(list(schema.relation_names), size)
        split = size - STAR_CHAIN_TAIL
        joins = repro.star_chain_joins(
            schema, names[0], names[1:split], names[split:]
        )
    query = repro.Query(schema, repro.JoinGraph(names, joins))
    return repro.render_sql(query, select_star=True)


def shape_universe(
    schema: repro.Schema, topology: str, size: int, count: int
) -> list[str]:
    """``count`` distinct instances of one shape, the same on every call.

    Instances that would join the same relations on the same columns are
    skipped, so no two texts share a plan-cache fingerprint.
    """
    rng = random.Random(f"{schema.name}/{topology}-{size}")
    texts: list[str] = []
    seen: set[frozenset] = set()
    while len(texts) < count:
        sql = _star_sql(schema, topology, size, rng)
        key = frozenset(_join_terms(sql))
        if key not in seen:
            seen.add(key)
            texts.append(sql)
    return texts


def _join_terms(sql: str) -> list[str]:
    """The join predicates of rendered SQL, each written one canonical way."""
    return [
        " = ".join(sorted((left, right)))
        for left, right in re.findall(r"(\w+\.\w+) = (\w+\.\w+)", sql)
    ]


# -- TPC-H-lite constant variants ----------------------------------------------

_SELECTION = re.compile(r"(\w+)\.(\w+) (<=|>=|!=|<>|<|>|=) (\d+(?:\.\d+)?)")


def tpch_variant(schema: repro.Schema, label: str, sql: str, variant: int) -> str:
    """Template ``sql`` with seeded constants; variant 0 is the template.

    Equality constants are drawn from the column's whole domain, range
    constants from its middle 80%, so no variant selects nothing.
    """
    if variant == 0:
        return sql
    rng = random.Random(f"tpch-lite/{label}/{variant}")

    def draw(match: re.Match) -> str:
        relation, column, op, _ = match.groups()
        domain = schema.relation(relation).column(column).domain_size
        if op in ("=", "!=", "<>"):
            value = rng.randrange(domain)
        else:
            value = rng.randrange(max(1, domain // 10), max(2, domain * 9 // 10))
        return f"{relation}.{column} {op} {value}"

    return _SELECTION.sub(draw, sql)


# -- universes and per-seed pools ----------------------------------------------


def universe(spec: Workload, schema: repro.Schema) -> dict[str, list[str]]:
    """Every text any seed can draw, by shape (or template) label."""
    if spec.name == "tpch_sql":
        return {
            label: list(
                dict.fromkeys(
                    tpch_variant(schema, label, sql, v)
                    for v in range(spec.universe)
                )
            )
            for label, sql in repro.TPCH_LITE_SQL
        }
    return {
        f"{topology}-{size}": shape_universe(
            schema,
            topology,
            size,
            1 if f"{topology}-{size}" in spec.pinned else spec.universe,
        )
        for topology, size in spec.shapes
    }


def pool(spec: Workload, schema: repro.Schema, seed: int) -> list[tuple[str, str]]:
    """The run's ``(shape label, SQL text)`` pairs in request order.

    * ``tpch_sql``: ``picked`` variants of each template, shuffled; a
      template with fewer distinct variants (no constants, or a
      small-domain equality) repeats some.
    * ``star_sdp`` / ``dp_star`` / ``frontdoor_mix``: rounds over the
      shapes, one instance of each shape per round, ``picked`` rounds.
      The open loop draws from the pool with :func:`zipf_requests`.
    """
    rng = random.Random(f"{spec.name}/{seed}")
    chosen = {
        label: (
            rng.sample(texts, spec.picked)
            if len(texts) >= spec.picked
            else rng.choices(texts, k=spec.picked)
        )
        for label, texts in universe(spec, schema).items()
    }
    if spec.name == "tpch_sql":
        items = [(label, text) for label, texts in chosen.items() for text in texts]
        rng.shuffle(items)
        return items
    return [
        (label, texts[r]) for r in range(spec.picked) for label, texts in chosen.items()
    ]


def zipf_requests(
    pool: list[tuple[str, str]], exponent: float, count: int, rng: random.Random
) -> list[tuple[str, str]]:
    """``count`` requests over ``pool`` by Zipf rank, in ``rng``'s order.

    A text's rank is its pool position. The pool goes round by round over
    the shapes, so the shape at each rank is the same for every seed. Each
    rank gets its exact share of ``count``, rounded by largest remainder,
    so every seed also sends each rank the same number of requests; only
    which instance sits at a rank, and the order, change.
    """
    weights = [1.0 / rank**exponent for rank in range(1, len(pool) + 1)]
    total = sum(weights)
    exact = [weight * count / total for weight in weights]
    counts = [int(share) for share in exact]
    by_remainder = sorted(range(len(pool)), key=lambda i: counts[i] - exact[i])
    for i in by_remainder[: count - sum(counts)]:
        counts[i] += 1
    requests = [item for item, n in zip(pool, counts) for _ in range(n)]
    rng.shuffle(requests)
    return requests
