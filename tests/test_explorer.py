"""Seeded generation and campaign determinism."""

import json
from hashlib import sha256
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from sumsethull.bounds import verify_theorem
from sumsethull import explorer
from sumsethull.explorer import (
    CAMPAIGN_TAGS,
    GeneratorConfig,
    generate_instance,
    generate_nested_chain,
    generate_subsum_instance,
    run_campaign,
)
from sumsethull.geometry import PointSet, affine_dimension, affine_rank, conv_contains
from sumsethull.hull import lattice_points
from sumsethull.subsums import SubsumInstance, subsum_report

from subsum_oracle import point_set_oracle


def small_config(**overrides):
    base = dict(
        dim=2,
        a_size=(1, 4),
        b_size=(3, 5),
        coord_range=2,
        k=2,
        seed=42,
        instances=8,
    )
    base.update(overrides)
    return GeneratorConfig(**base)


class TestGeneratorConfig:
    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            small_config(a_size=(3, 2))

    def test_bad_dim_rejected(self):
        with pytest.raises(ValueError):
            small_config(dim=0)

    def test_bad_coord_range_rejected(self):
        with pytest.raises(ValueError):
            small_config(coord_range=0)

    def test_intersection_size_bounds(self):
        with pytest.raises(ValueError):
            small_config(intersection_size=4)
        assert small_config(intersection_size=3).intersection_size == 3

    def test_b_smaller_than_simplex_rejected_at_generation(self):
        cfg = small_config(dim=3, b_size=(2, 3))
        with pytest.raises(ValueError, match="fewer than d\\+1"):
            generate_instance(cfg, 0)


class TestGenerateInstance:
    def test_deterministic(self):
        cfg = small_config()
        assert generate_instance(cfg, 3) == generate_instance(cfg, 3)

    def test_different_indices_differ(self):
        cfg = small_config(instances=50)
        drawn = {generate_instance(cfg, i) for i in range(10)}
        assert len(drawn) > 1

    def test_b_proper_and_a_contained(self):
        cfg = small_config()
        for i in range(6):
            A, B = generate_instance(cfg, i)
            assert affine_rank(B.points) == cfg.dim
            assert all(conv_contains(B, a) for a in A.points)

    def test_fixed_b_size_forces_triangles(self):
        cfg = small_config(b_size=(3, 3))
        for i in range(5):
            _, B = generate_instance(cfg, i)
            assert len(B) == 3

    def test_simplex_tag_draws_simplices(self):
        cfg = small_config(coord_range=3)
        for i in range(5):
            A, B = generate_instance(cfg, i, "simplex_exact")
            assert len(B) == cfg.dim + 1
            assert affine_rank(B.points) == cfg.dim

    @pytest.mark.parametrize("m1", [0, 1, 2, 3])
    def test_intersection_size_honored(self, m1):
        cfg = small_config(coord_range=4, intersection_size=m1)
        for i in range(5):
            A, B = generate_instance(cfg, i, "simplex_exact")
            assert len(set(A.points) & set(B.points)) == m1

    def test_proper_a_for_freiman(self):
        cfg = small_config(a_size=(1, 3))
        for i in range(5):
            A, _ = generate_instance(cfg, i, "freiman")
            assert affine_rank(A.points) == cfg.dim


class TestGenerateSubsumInstance:
    def test_deterministic_and_shaped(self):
        cfg = small_config(dim=1, a_size=(1, 6), coord_range=9, k=3)
        inst = generate_subsum_instance(cfg, 0)
        assert inst == generate_subsum_instance(cfg, 0)
        assert inst.k == 3
        assert all(1 <= len(s) <= 6 for s in inst.sets)
        assert all(-9 <= v <= 9 for s in inst.sets for v in s)

    def test_k1_rejected(self):
        cfg = small_config(dim=1, k=1)
        with pytest.raises(ValueError, match="k must be >= 2"):
            generate_subsum_instance(cfg, 0)


class TestGenerateNestedChain:
    def test_chain_is_nested(self):
        cfg = small_config(dim=2, b_size=(3, 4), coord_range=3, k=3)
        for i in range(4):
            A, chain = generate_nested_chain(cfg, i)
            assert len(chain) == 3
            for j in range(len(chain) - 1):
                assert all(conv_contains(chain[j + 1], p) for p in chain[j].points)
            assert all(conv_contains(chain[0], a) for a in A.points)
            for B in chain:
                assert affine_rank(B.points) == cfg.dim


def redraws_read_degenerate(monkeypatch):
    """Draw each outermost B as usual, then make every redraw fail its rank test."""
    draw = explorer._draw_proper_b

    def draw_then_degenerate(*args):
        monkeypatch.setattr(explorer, "affine_rank", affine_rank)
        B = draw(*args)
        monkeypatch.setattr(explorer, "affine_rank", lambda pts: -1)
        return B

    monkeypatch.setattr(explorer, "_draw_proper_b", draw_then_degenerate)


class TestFallbacks:
    def test_nested_chain_fallback_is_proper_and_nested(self, monkeypatch):
        redraws_read_degenerate(monkeypatch)
        cfg = small_config(dim=2, b_size=(4, 6), coord_range=3, k=3)
        A, chain = generate_nested_chain(cfg, 0)
        for inner, outer in zip(chain, chain[1:]):
            assert affine_dimension(inner) == cfg.dim
            assert all(conv_contains(outer, p) for p in inner.points)
        assert all(conv_contains(chain[0], a) for a in A.points)

    def test_force_proper_fallback_is_proper_and_inside(self, monkeypatch):
        redraws_read_degenerate(monkeypatch)
        cfg = small_config(dim=3, a_size=(1, 2), b_size=(5, 6), coord_range=2)
        for i in range(3):
            A, B = generate_instance(cfg, i, "freiman")
            assert affine_dimension(A) == cfg.dim
            assert all(conv_contains(B, a) for a in A.points)


class TestRunCampaign:
    @pytest.mark.parametrize("tag", ["freiman", "vertex_sum", "two_sets", "k_fold", "simplex_exact"])
    def test_theorem_campaigns_have_zero_violations(self, tag):
        rep = run_campaign(small_config(), tag)
        assert rep.violations == 0
        assert rep.summary["instances"] == 8
        assert rep.assertable

    def test_simplex_exact_has_zero_slack_everywhere(self):
        rep = run_campaign(small_config(coord_range=3), "simplex_exact")
        assert all(r["slack"] == 0 for r in rep.records)

    def test_reports_byte_identical(self):
        cfg = small_config()
        assert run_campaign(cfg, "k_fold").to_json() == run_campaign(cfg, "k_fold").to_json()

    def test_summary_recomputable_from_records(self):
        rep = run_campaign(small_config(), "k_fold")
        violations = sum(1 for r in rep.records if not r["satisfied"])
        assert violations == rep.violations
        assert rep.summary["min_slack"] == min(r["slack"] for r in rep.records)

    def test_witness_replays_through_verify_theorem(self):
        rep = run_campaign(small_config(), "k_fold")
        w = rep.summary["extremal_witness"]["witness"]
        A = PointSet.from_points([tuple(p) for p in w["a"]])
        B = PointSet.from_points([tuple(p) for p in w["b"]])
        rec = verify_theorem("k_fold", A, B, k=w["k"])
        assert rec.bound == rep.summary["extremal_witness"]["bound"]
        assert rec.actual == rep.summary["extremal_witness"]["actual"]
        assert rec.satisfied

    def test_subsum_campaign(self):
        cfg = small_config(dim=1, a_size=(1, 6), coord_range=9, k=3, instances=12)
        rep = run_campaign(cfg, "subsum")
        assert rep.violations == 0
        assert rep.assertable

    def test_question1_exploratory(self):
        cfg = small_config(dim=1, a_size=(2, 6), coord_range=9, k=3, instances=12)
        rep = run_campaign(cfg, "question1")
        assert not rep.assertable
        assert rep.summary["exploratory"]
        assert "observed_min_ratio" in rep.summary
        assert rep.summary["conjectured_ratio"] == "1/2"

    def test_question1_multidimensional_instances(self):
        # d=2, k=3: conjectured floor 3^1/2^2; instances are triples of
        # proper planar sets, and the union S' never exceeds the full
        # sum S because each extremal set is a subset of its source.
        cfg = small_config(dim=2, a_size=(3, 5), coord_range=3, k=3, instances=6)
        rep = run_campaign(cfg, "question1")
        assert not rep.assertable
        assert rep.summary["conjectured_ratio"] == "3/4"
        for rec in rep.records:
            sets = rec["instance"]["sets"]
            assert len(sets) == 3
            for pts in sets:
                assert affine_rank([tuple(p) for p in pts]) == 2
            assert rec["s_prime_size"] <= rec["s_size"]

    @pytest.mark.parametrize("dim", [2, 3])
    def test_question1_records_match_the_oracle(self, dim):
        # Pairs of 5 to 10 points in a small box have interior points, so
        # |S'| < |S| on some records: there adding back whole sets instead
        # of their vertices would change |S'|.
        cfg = small_config(dim=dim, a_size=(5, 10), coord_range=2, k=2, instances=6)
        records = run_campaign(cfg, "question1").records
        for rec in records:
            family = tuple(PointSet.from_points(map(tuple, pts)) for pts in rec["instance"]["sets"])
            s_size, s_i_sizes, s_prime_size = point_set_oracle(family)
            assert (rec["s_size"], rec["sum_s_i"], rec["s_prime_size"]) == (
                s_size, sum(s_i_sizes), s_prime_size,
            )
        assert any(rec["s_prime_size"] < rec["s_size"] for rec in records)

    def test_violations_and_witness_come_from_the_loop(self, monkeypatch):
        # No true bound fails, so raise question2's bound past every sum.
        monkeypatch.setattr(explorer, "kfold_bound", lambda n, d, k: 10**6)
        cfg = small_config(dim=1, b_size=(2, 4), coord_range=6, k=2, instances=5)
        rep = run_campaign(cfg, "question2")
        assert rep.violations == 5
        assert rep.assertable
        least = min(r["slack"] for r in rep.records)
        first = next(r for r in rep.records if r["slack"] == least)
        assert rep.summary["min_slack"] == least
        assert rep.summary["extremal_witness"] is first

    def test_question2_assertable_only_in_1d(self):
        cfg1 = small_config(dim=1, b_size=(2, 4), coord_range=6, k=2, instances=10)
        rep1 = run_campaign(cfg1, "question2")
        assert rep1.assertable and rep1.violations == 0
        cfg2 = small_config(dim=2, b_size=(3, 4), coord_range=2, k=2, instances=4)
        rep2 = run_campaign(cfg2, "question2")
        assert not rep2.assertable

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign tag"):
            run_campaign(small_config(), "nope")

    def test_json_is_loadable_and_csv_shaped(self):
        rep = run_campaign(small_config(instances=4), "k_fold")
        parsed = json.loads(rep.to_json())
        assert parsed["tag"] == "k_fold"
        lines = rep.to_csv().strip().splitlines()
        assert lines[0] == "seed,index,tag,bound,actual,slack"
        assert len(lines) == 5

    def test_all_tags_covered(self):
        assert set(CAMPAIGN_TAGS) == {
            "freiman",
            "vertex_sum",
            "two_sets",
            "k_fold",
            "simplex_exact",
            "subsum",
            "question1",
            "question2",
        }


def pinned_config(dim):
    return GeneratorConfig(
        dim=dim,
        a_size=(1, 5),
        b_size=(dim + 1, dim + 3),
        coord_range=3,
        k=3,
        seed=11,
        instances=6,
    )


# sha256 of run_campaign(pinned_config(d), tag).to_json(), pinned so that
# a refactor which changes any record or summary byte shows up here.
REPORT_DIGESTS = {
    (1, "freiman"): "c79d500c24a82c0ef2b106cae2aece9bec7ffb226cdf6c68c843bf5f66d71259",
    (1, "vertex_sum"): "29fba5622cc7094d5124422f12e1f76645c30dd67df32d237134729131174c33",
    (1, "two_sets"): "397ed118cc3bd19c6ca094f4109b57b93d5891d16ebe82b9997e107be048d28c",
    (1, "k_fold"): "2d0dc5594be484afccec04e464691a3f5c842a767e2d0d1e4077979b88790367",
    (1, "simplex_exact"): "4c76d30faf58b2449a43ed68674c9a93e880b42b65f934f2d5393bf68e2c4500",
    (1, "subsum"): "63b53de7f9d5cf4044c1e706261dd70eccfda38fa1eaa8cdc1235afe966ec3dc",
    (1, "question1"): "135cc456a991f130ee67247ea4a873eeffa217af099b20d2e9edcefad50c6f04",
    (1, "question2"): "746791f9a92da133569d7993789844554650791ff17969d10b8d60b150f2ef53",
    (2, "freiman"): "a9da34ef789f7207a3227c837f5190d62bd58b7b2f540bc7aa917dc3746b4cfe",
    (2, "vertex_sum"): "7f16a61eb3fab9b1b93ef69e3c32422f9a17ccaaf082548b140379afda94bc3e",
    (2, "two_sets"): "a995164694e030e765e195268064c91daf7b22995b6b389f4a5a073d42957fca",
    (2, "k_fold"): "152abc36b3e86f0c2ea051dd783933e7ec619c57dd890aa2a2d1e18c553b12e8",
    (2, "simplex_exact"): "f54026ddb181105ab6a14c3d0ad17bf0c60a133afe478a25a956ea2af6cf99d7",
    (2, "subsum"): "589a7e730a2be2a33816aa5177b597c7eb67a3980dae86e845c9a183b117505b",
    (2, "question1"): "3c443e58b47b4517a6741b84d102db3343b78b3acb6c161fdd6db188f3056a9d",
    (2, "question2"): "7cef20da29c194cb588156b12028d9a2653143b149d5ff8c779ab0021a39ad95",
    (3, "freiman"): "a0d82d360ed839c2b0c6a6dff6635b75327d6afd2777aa593a15e29257e72ae8",
    (3, "vertex_sum"): "c07bced523a2920839b5a55d8cfbfd0268b6468fdaf1c2fcadd592baaf38f254",
    (3, "two_sets"): "1ac88a6a93e1ad065ba9ac8f3ec36b580bf22d8b31c2de6f27de735ad32049ac",
    (3, "k_fold"): "422df025851f47e45b41df10eff89b22b4f02e4d7e1c5b5d3c93ea8d7687355d",
    (3, "simplex_exact"): "d61e04b0dd7b540e8f788a6588d0e230e48f4f5acacb79ade944f680e321f96b",
    (3, "subsum"): "44e4510020d6779e890bb88a013369493a8f5ae6a00ac91aacb5adb8b849f8cb",
    (3, "question1"): "63c5288099ec916e9daa8f44373923eb43f76a9a265de45000078cde2d3c35c4",
    (3, "question2"): "e714001d7c1ff9a1c4027bd21bc390f51c17b07d2f0b9d9cd4209bddaaabbffa",
}


class TestReportBytes:
    @pytest.mark.parametrize("dim, tag", sorted(REPORT_DIGESTS))
    def test_json_report_bytes_pinned(self, dim, tag):
        report = run_campaign(pinned_config(dim), tag).to_json()
        assert sha256(report.encode()).hexdigest() == REPORT_DIGESTS[dim, tag]

    def test_csv_report_bytes_pinned(self):
        report = run_campaign(pinned_config(1), "subsum").to_csv()
        assert sha256(report.encode()).hexdigest() == (
            "f36df9283e7d25b44c8ae0e748f7a8d4bc9a56d39f98b1f8d0d4abd869629353"
        )


def iter_exhaustive_subsum_instances(max_value: int, max_size: int, k: int):
    """Every SubsumInstance with k subsets of {0..max_value}.

    Slow mode for tiny 1-D ranges only: the instance count is
    (sum_s C(max_value+1, s))^k, exponential in every argument.
    """
    values = range(max_value + 1)
    pool = [
        combo
        for size in range(1, max_size + 1)
        for combo in combinations(values, size)
    ]
    for sets in product(pool, repeat=k):
        yield SubsumInstance(tuple(sets))


class TestExhaustiveSlowMode:
    def test_tiny_enumeration_count(self):
        insts = list(iter_exhaustive_subsum_instances(2, 2, 2))
        assert len(insts) == 36

    def test_chain_holds_exhaustively_on_tiny_range(self):
        for inst in iter_exhaustive_subsum_instances(3, 2, 2):
            assert subsum_report(inst).chain_satisfied
