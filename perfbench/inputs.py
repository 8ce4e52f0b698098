"""Workload inputs: fixed populations, seeded row orders and request mixes.

Each workload mines one fixed set of rows of one fixed population;
``--seed`` picks their order, the held-out rows used for requests and
appends, and the traffic.  Re-seeding a generator instead would change the
latent structure of the data and with it the size of every mined family
(on the MUSHROOM* stand-in at minsup 0.4, generator seeds 23, 24 and 25
give 643, 120 and 27 closed sets).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

#: Per scale: (population rows, mined rows, minsup).  ``tiny`` is for
#: the benchmark's own smoke tests only.
DENSE = {"full": (2100, 2000, 0.5), "tiny": (300, 250, 0.7)}
SPARSE = {"full": (12000, 10000, 0.01), "tiny": (1500, 1200, 0.02)}
MINCONF = 0.7


@dataclass
class Sample:
    """One population split into mined rows and held-out rows."""

    rows: list[frozenset]
    held_out: list[frozenset]
    minsup: float


def _split(population: list[frozenset], n_sample: int, seed: int, minsup: float) -> Sample:
    """The first *n_sample* rows are mined, the rest held out; *seed* orders both.

    The mined set is the same for every seed, so every mined size (and
    with it the work of a build) is too; with a seeded 2,000-of-2,100
    sample instead, the mean build time of a seed ranged from 4.2 s to
    5.5 s over ten seeds.  The seed still changes the inputs: the row order of the
    mined context, and which held-out rows feed the requests and the
    appended batches.
    """
    rng = np.random.default_rng([seed, 1])
    mined = rng.permutation(n_sample)
    held = n_sample + rng.permutation(len(population) - n_sample)
    return Sample(
        rows=[population[int(i)] for i in mined],
        held_out=[population[int(i)] for i in held],
        minsup=minsup,
    )


def dense_sample(seed: int, scale: str = "full") -> Sample:
    """MUSHROOM* rows: 2,000 mined rows of a fixed 2,100-row population.

    The population is the prefix of the generator's seed-23 stream, so
    its latent classes are those of the paper-scale stand-in.  Re-seeding
    the generator instead would change the mined sizes several-fold.
    """
    from repro.data.benchmarks_data import make_mushroom

    n_population, n_sample, minsup = DENSE[scale]
    population = make_mushroom(n_objects=n_population, seed=23)
    return _split([row.as_frozenset() for row in population], n_sample, seed, minsup)


def sparse_sample(seed: int, scale: str = "full") -> Sample:
    """Quest T10I4-style rows: 10,000 mined rows of a fixed 12,000-row population.

    The held-out rows, in seeded order, are the append stream.
    """
    from repro.data.synthetic import QuestGenerator

    n_population, n_sample, minsup = SPARSE[scale]
    population = QuestGenerator(seed=7).generate(n_population)
    return _split([row.as_frozenset() for row in population], n_sample, seed, minsup)


# ----------------------------------------------------------------------
# Request mix
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Request:
    """One HTTP request of the serve mix."""

    kind: str  # recommend | rules | derive | bases
    method: str
    path: str
    body: bytes | None = None

    def params(self) -> dict[str, str]:
        from urllib.parse import parse_qs, urlsplit

        query = urlsplit(self.path).query
        return {k: v[-1] for k, v in parse_qs(query, keep_blank_values=True).items()}

    @property
    def route(self) -> str:
        return self.path.split("?", 1)[0]


#: Shares of the serve mix (recommend, rules, derive, bases).
MIX = (("recommend", 0.40), ("rules", 0.30), ("derive", 0.25), ("bases", 0.05))

#: Query-string variants of the rules pages (limit 20, a few filters).
_RULE_FILTERS = (
    "",
    "&min_confidence=0.9",
    "&kind=exact",
    "&kind=approximate&min_support=0.5",
)


#: Distinct rules pages the Zipf draw ranks.
RULE_PAGES = 120


def rule_pages(basis_names: list[str]) -> list[str]:
    """The rules pages in popularity order (rank 0 is the most popular)."""
    pages = [
        f"/bases/{name}/rules?limit=20&offset={offset}{filters}"
        for offset in range(0, RULE_PAGES * 20, 20)
        for filters in _RULE_FILTERS
        for name in basis_names
    ]
    return pages[:RULE_PAGES]


def make_requests(
    held_out: list[frozenset],
    basis_names: list[str],
    n: int,
    rng: np.random.Generator,
) -> list[Request]:
    """*n* requests of the serve mix drawn from held-out rows.

    * recommend: a 2-4 item basket of a held-out row, k=5 (mostly misses);
    * rules: Zipf-popular pages, limit 20 (mostly cache hits);
    * derive: antecedent and consequent split from a held-out row (a 422
      "not derivable" is a correct answer);
    * bases: the per-basis summary.
    """
    kinds = rng.choice(
        [kind for kind, _ in MIX], size=n, p=[share for _, share in MIX]
    )
    pages = rule_pages(basis_names)
    ranks = np.arange(1, len(pages) + 1, dtype=float)
    zipf = 1.0 / ranks**1.1
    zipf /= zipf.sum()
    requests = []
    for kind in kinds.tolist():
        if kind == "rules":
            page = pages[int(rng.choice(len(pages), p=zipf))]
            requests.append(Request("rules", "GET", page))
        elif kind == "bases":
            requests.append(Request("bases", "GET", "/bases"))
        else:
            row = sorted(str(item) for item in held_out[int(rng.integers(len(held_out)))])
            size = min(len(row), int(rng.integers(2, 5)))
            picked = [str(item) for item in rng.choice(row, size=size, replace=False)]
            if kind == "recommend":
                body = {"basket": sorted(picked), "k": 5}
            else:
                cut = len(picked) // 2  # the consequent keeps at least one item
                body = {
                    "antecedent": sorted(picked[:cut]),
                    "consequent": sorted(picked[cut:]),
                }
            requests.append(Request(
                kind, "POST", f"/{kind}", json.dumps(body).encode()
            ))
    return requests


def arrival_offsets(n: int, duration: float, rng: np.random.Generator) -> np.ndarray:
    """*n* Poisson arrivals over *duration* seconds (sorted uniform times).

    A Poisson process conditioned on its count is *n* sorted uniform
    points, so every phase gets exactly the count its percentiles need.
    """
    return np.sort(rng.uniform(0.0, duration, size=n))
