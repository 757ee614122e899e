"""Seeded instance generation and verification campaigns.

Instances are deterministic functions of (master seed, index): each
index gets its own counter-keyed random stream, so campaigns can be
re-run, subdivided, or parallelized without changing any instance.
One loop runs every campaign: it records each instance, counts
violations of the bounds (expected: none) and keeps the extremal
witness.  Reports on the two open questions are exploratory and never
asserted, except the nested-chain question in dimension 1.
"""

from __future__ import annotations

import csv
import io
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from .bounds import THEOREM_TAGS, kfold_bound, verify_theorem
from .geometry import PointSet, affine_basis, affine_dimension, affine_rank, vertex_set
from .hull import lattice_points
from .subsums import SubsumInstance, _leave_one_out, subsum_report
from .sumsets import sumset

CAMPAIGN_TAGS = THEOREM_TAGS + ("subsum", "question1", "question2")

_MAX_REDRAWS = 1000


@dataclass(frozen=True)
class GeneratorConfig:
    """Shape of the random instances drawn by one campaign.

    Coordinates are integers in [-coord_range, coord_range].  B is
    redrawn until proper d-dimensional; A is sampled from the lattice
    points of conv B, so the containment hypotheses hold by
    construction.  intersection_size, when set, forces |A cap B| for
    simplex campaigns.
    """

    dim: int
    a_size: tuple[int, int]
    b_size: tuple[int, int]
    coord_range: int
    k: int
    seed: int | str
    instances: int
    intersection_size: int | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.coord_range < 1:
            raise ValueError("coord_range must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.instances < 1:
            raise ValueError("instances must be >= 1")
        for name, (lo, hi) in (("a_size", self.a_size), ("b_size", self.b_size)):
            if lo < 1 or hi < lo:
                raise ValueError(f"config ranges infeasible: empty {name} range")
        if self.intersection_size is not None and not (
            0 <= self.intersection_size <= self.dim + 1
        ):
            raise ValueError("intersection_size must lie in [0, dim+1]")

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "a_size": list(self.a_size),
            "b_size": list(self.b_size),
            "coord_range": self.coord_range,
            "k": self.k,
            "seed": self.seed,
            "instances": self.instances,
            "intersection_size": self.intersection_size,
        }


def _rng_for(cfg: GeneratorConfig, index: int) -> random.Random:
    return random.Random(f"{cfg.seed}:{index}")


def _decode_point(idx: int, dim: int, c: int) -> tuple[int, ...]:
    width = 2 * c + 1
    coords = []
    for _ in range(dim):
        idx, r = divmod(idx, width)
        coords.append(r - c)
    return tuple(coords)


def _draw_proper_b(rng: random.Random, cfg: GeneratorConfig, size: int) -> PointSet:
    d, c = cfg.dim, cfg.coord_range
    total = (2 * c + 1) ** d
    if size < d + 1:
        raise ValueError("config ranges infeasible: fewer than d+1 points requested for B")
    if size > total:
        raise ValueError("config ranges infeasible: more points than lattice cells")
    if total > sys.maxsize:
        # rng.sample cannot index a range longer than sys.maxsize
        raise ValueError(f"--dim {d} too large: the box [-{c}, {c}]^{d} has more than {sys.maxsize} points")
    for _ in range(_MAX_REDRAWS):
        pts = sorted(_decode_point(i, d, c) for i in rng.sample(range(total), size))
        B = PointSet(d, tuple(pts))
        if affine_dimension(B) == d:
            return B
    raise ValueError("config ranges infeasible: could not draw a proper B")


def _sample_a(rng: random.Random, cfg: GeneratorConfig, lattice: list) -> PointSet:
    lo, hi = cfg.a_size
    size = min(max(rng.randint(lo, hi), 1), len(lattice))
    return PointSet(cfg.dim, tuple(sorted(rng.sample(lattice, size))))


def _force_proper(rng: random.Random, cfg: GeneratorConfig, lattice: list, B: PointSet) -> PointSet:
    """Sample A from the lattice until it is proper d-dimensional.

    B's points all lie in the lattice and are proper, so a deterministic
    fallback that merges in an independent subset of B always exists.
    """
    d = cfg.dim
    for _ in range(200):
        A = _sample_a(rng, cfg, lattice)
        if len(A) >= d + 1 and affine_rank(A.points) == d:
            return A
    sample = list(_sample_a(rng, cfg, lattice).points)
    merged = sample + list(B.points)
    added = [merged[i] for i in affine_basis(merged) if i >= len(sample)]
    return PointSet(d, tuple(sorted(sample + added)))


def _draw_simplex_instance(rng: random.Random, cfg: GeneratorConfig):
    d = cfg.dim
    for _ in range(_MAX_REDRAWS):
        B = _draw_proper_b(rng, cfg, d + 1)
        lattice = lattice_points(B)
        if cfg.intersection_size is None:
            return _sample_a(rng, cfg, lattice), B
        m1 = cfg.intersection_size
        non_vertices = [p for p in lattice if p not in B.points]
        lo, hi = cfg.a_size
        target = max(rng.randint(lo, hi), m1, 1)
        extra = min(target - m1, len(non_vertices))
        if m1 + extra < 1:
            continue
        chosen = rng.sample(list(B.points), m1) + rng.sample(non_vertices, extra)
        return PointSet(d, tuple(sorted(chosen))), B
    raise ValueError("config ranges infeasible: no simplex admits the requested A")


def generate_instance(cfg: GeneratorConfig, index: int, tag: str = "k_fold"):
    """Deterministic instance for (seed, index): returns (A, B).

    freiman/vertex_sum additionally force A proper; simplex_exact draws
    B with exactly d+1 affinely independent points and honors
    intersection_size.
    """
    rng = _rng_for(cfg, index)
    if tag == "simplex_exact":
        return _draw_simplex_instance(rng, cfg)
    lo, hi = cfg.b_size
    B = _draw_proper_b(rng, cfg, rng.randint(lo, hi))
    lattice = lattice_points(B)
    if tag in ("freiman", "vertex_sum"):
        return _force_proper(rng, cfg, lattice, B), B
    return _sample_a(rng, cfg, lattice), B


def generate_subsum_instance(cfg: GeneratorConfig, index: int) -> SubsumInstance:
    """k nonempty integer sets with values in [-c, c], sizes from a_size."""
    if cfg.k < 2:
        raise ValueError("k must be >= 2 (bound divides by k-1)")
    rng = _rng_for(cfg, index)
    lo, hi = cfg.a_size
    c = cfg.coord_range
    sets = []
    for _ in range(cfg.k):
        size = min(rng.randint(lo, hi), 2 * c + 1)
        sets.append(tuple(sorted(rng.sample(range(-c, c + 1), size))))
    return SubsumInstance(tuple(sets))


def generate_nested_chain(cfg: GeneratorConfig, index: int):
    """A and B_1..B_k with A in conv B_1 and conv B_j in conv B_{j+1}.

    Built outside-in: B_k from the coordinate box, each inner B_j from
    the lattice points of conv B_{j+1}, and A from conv B_1.
    """
    rng = _rng_for(cfg, index)
    d = cfg.dim
    lo, hi = cfg.b_size
    chain = [None] * cfg.k
    chain[cfg.k - 1] = _draw_proper_b(rng, cfg, rng.randint(lo, hi))
    for j in range(cfg.k - 2, -1, -1):
        lattice = lattice_points(chain[j + 1])
        size = min(max(rng.randint(lo, hi), d + 1), len(lattice))
        B = None
        for _ in range(200):
            pts = sorted(rng.sample(lattice, size))
            if affine_rank(pts) == d:
                B = PointSet(d, tuple(pts))
                break
        if B is None:
            outer = chain[j + 1].points
            B = PointSet(d, tuple(sorted(outer[i] for i in affine_basis(outer))))
        chain[j] = B
    A = _sample_a(rng, cfg, lattice_points(chain[0]))
    return A, tuple(chain)


@dataclass(frozen=True)
class CampaignReport:
    """Outcome of one campaign: per-instance records plus a summary.

    Byte-identical across runs with the same config: serialization uses
    sorted keys and fixed separators, and every value derives from the
    seeded streams.
    """

    tag: str
    config: GeneratorConfig
    records: tuple = field(default=())
    summary: dict = field(default_factory=dict)

    @property
    def violations(self) -> int:
        return self.summary.get("violations", 0)

    @property
    def assertable(self) -> bool:
        return self.summary.get("assertable", True)

    def to_dict(self) -> dict:
        return {
            "tag": self.tag,
            "config": self.config.to_dict(),
            "records": list(self.records),
            "summary": self.summary,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["seed", "index", "tag", "bound", "actual", "slack"])
        for rec in self.records:
            writer.writerow(
                [
                    self.config.seed,
                    rec["index"],
                    self.tag,
                    rec.get("bound", ""),
                    rec.get("actual", ""),
                    rec.get("slack", ""),
                ]
            )
        return buf.getvalue()


def generate_vector_family(cfg: GeneratorConfig, index: int) -> tuple[PointSet, ...]:
    """k proper d-dimensional sets from the coordinate box, seeded."""
    rng = _rng_for(cfg, index)
    lo, hi = cfg.a_size
    return tuple(
        _draw_proper_b(rng, cfg, max(rng.randint(lo, hi), cfg.dim + 1))
        for _ in range(cfg.k)
    )


def _theorem_entry(tag: str, cfg: GeneratorConfig, i: int):
    A, B = generate_instance(cfg, i, tag)
    if tag in ("freiman", "vertex_sum"):
        rec = verify_theorem(tag, A, instance=f"{cfg.seed}:{i}")
    else:
        k = 1 if tag == "two_sets" else cfg.k
        rec = verify_theorem(tag, A, B, k=k, instance=f"{cfg.seed}:{i}")
    slack = rec.actual - rec.bound
    return {"index": i, "slack": slack, **rec.to_dict()}, slack, not rec.satisfied


def _subsum_entry(cfg: GeneratorConfig, i: int):
    inst = generate_subsum_instance(cfg, i)
    rep = subsum_report(inst)
    slack = Fraction(rep.s_prime_size) - rep.bound
    entry = {
        "index": i,
        "instance": inst.to_dict(),
        "slack": str(slack),
        "actual": rep.s_prime_size,
        **rep.to_dict(),
    }
    return entry, slack, not rep.chain_satisfied


def _question1_entry(conjectured: Fraction, cfg: GeneratorConfig, i: int):
    """|S'| / sum |S_i| against the conjectured ratio, never a violation.

    In dimension 1 the instances are plain integer-set chains; in
    higher dimensions each A_i is a proper d-dimensional set and the
    endpoint pair generalizes to the extremal points of A_i.  Purely
    exploratory: the conjecture carries an unquantified epsilon and
    size threshold, so nothing is asserted; raw ratios are recorded
    for inspection.
    """
    if cfg.dim == 1:
        inst = generate_subsum_instance(cfg, i)
        rep = subsum_report(inst)
        instance_blob = inst.to_dict()
    else:
        family = generate_vector_family(cfg, i)
        zero = PointSet(cfg.dim, ((0,) * cfg.dim,))
        rep = _leave_one_out(family, lambda X, Y: sumset(X, Y).points, vertex_set, zero)
        instance_blob = {"sets": [[list(p) for p in X.points] for X in family]}
    sum_s_i = sum(rep.s_i_sizes)
    ratio = Fraction(rep.s_prime_size, sum_s_i)
    entry = {
        "index": i,
        "instance": instance_blob,
        "ratio": str(ratio),
        "bound": str(conjectured),
        "actual": str(ratio),
        "slack": str(ratio - conjectured),
        "s_size": rep.s_size,
        "s_prime_size": rep.s_prime_size,
        "sum_s_i": sum_s_i,
    }
    return entry, ratio, False


def _question2_entry(cfg: GeneratorConfig, i: int):
    """The nested-hull sum A + B_1 + ... + B_k against the k-fold bound."""
    A, chain = generate_nested_chain(cfg, i)
    current = A
    for B in chain:
        current = sumset(current, B).points
    actual = len(current)
    bound = kfold_bound(len(A), cfg.dim, cfg.k)
    slack = actual - bound
    entry = {
        "index": i,
        "a": [list(p) for p in A.points],
        "chain": [[list(p) for p in B.points] for B in chain],
        "k": cfg.k,
        "bound": bound,
        "actual": actual,
        "slack": slack,
        "satisfied": actual >= bound,
    }
    return entry, slack, actual < bound


def _campaign(cfg, tag, measure, summary_name, witness_field, assertable=True, **extra) -> CampaignReport:
    """Run ``measure(cfg, i) -> (entry, key, violated)`` for every index.

    The first entry with the smallest key is the extremal witness; its
    ``witness_field`` is reported as ``summary_name``.
    """
    records = []
    violations = 0
    least = witness = None
    for i in range(cfg.instances):
        entry, key, violated = measure(cfg, i)
        records.append(entry)
        violations += violated
        if least is None or key < least:
            least, witness = key, entry
    summary = {
        "instances": cfg.instances,
        "violations": violations,
        summary_name: witness[witness_field],
        "extremal_witness": witness,
        "assertable": assertable,
        "exploratory": tag.startswith("question"),
        **extra,
    }
    return CampaignReport(tag, cfg, tuple(records), summary)


def run_campaign(cfg: GeneratorConfig, tag: str) -> CampaignReport:
    """Run one campaign; records are merged in index order.

    ``question1`` is never asserted (see ``_question1_entry``);
    ``question2`` is asserted only in dimension 1, where the estimate is
    elementary, and higher dimensions record outcomes without any claim.
    """
    if tag in THEOREM_TAGS:
        return _campaign(cfg, tag, partial(_theorem_entry, tag), "min_slack", "slack")
    if tag == "subsum":
        return _campaign(cfg, tag, _subsum_entry, "min_slack", "slack")
    if tag == "question1":
        if cfg.k < 2:
            raise ValueError("k must be >= 2 (bound divides by k-1)")
        conjectured = Fraction(cfg.k ** (cfg.dim - 1), (cfg.k - 1) ** cfg.dim)
        return _campaign(
            cfg, tag, partial(_question1_entry, conjectured), "observed_min_ratio", "ratio",
            assertable=False, conjectured_ratio=str(conjectured),
        )
    if tag == "question2":
        return _campaign(cfg, tag, _question2_entry, "min_slack", "slack", assertable=cfg.dim == 1)
    raise ValueError(f"unknown campaign tag: {tag}")
