"""Seeded generation and campaign determinism."""

import json

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
    iter_exhaustive_subsum_instances,
    run_campaign,
)
from sumsethull.geometry import PointSet, affine_dimension, affine_rank, conv_contains
from sumsethull.hull import lattice_points


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


class TestExhaustiveSlowMode:
    def test_tiny_enumeration_count(self):
        insts = list(iter_exhaustive_subsum_instances(2, 2, 2))
        assert len(insts) == 36

    def test_chain_holds_exhaustively_on_tiny_range(self):
        from sumsethull.subsums import subsum_report

        for inst in iter_exhaustive_subsum_instances(3, 2, 2):
            assert subsum_report(inst).chain_satisfied
