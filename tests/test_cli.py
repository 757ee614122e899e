"""Command-line interface: file formats, exit codes, determinism."""

import hashlib
import json
import random
import signal
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sumsethull import cli
from sumsethull.cli import main
from sumsethull.decomposition import Decomposition
from sumsethull.geometry import PointSet


def write_points(path, dim, points):
    path.write_text(json.dumps({"dim": dim, "points": points}))
    return str(path)


@pytest.fixture
def triangle(tmp_path):
    return write_points(tmp_path / "tri.json", 2, [[0, 0], [3, 0], [0, 3]])


@pytest.fixture
def single(tmp_path):
    return write_points(tmp_path / "pt.json", 2, [[1, 1]])


class TestSumsetCommand:
    def test_singleton_translate(self, tmp_path, triangle, single, capsys):
        out = tmp_path / "out.json"
        code = main(["sumset", "--a", single, "--b", triangle, "-k", "1", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "3"
        data = json.loads(out.read_text())
        assert data == {"dim": 2, "points": [[1, 1], [1, 4], [4, 1]]}

    def test_missing_file_exit_2(self, tmp_path, single, capsys):
        code = main(["sumset", "--a", single, "--b", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert "file not found" in capsys.readouterr().err

    def test_k_zero_exit_2(self, tmp_path, triangle, single, capsys):
        code = main(["sumset", "--a", single, "--b", triangle, "-k", "0", "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert "k must be >= 1" in capsys.readouterr().err

    def test_output_sorted_lexicographically(self, tmp_path, triangle):
        out = tmp_path / "out.json"
        main(["sumset", "--a", triangle, "--b", triangle, "-k", "2", "--out", str(out)])
        pts = json.loads(out.read_text())["points"]
        assert pts == sorted(pts)

    def test_output_bytes_pinned(self, tmp_path, capsys):
        # bytes written by the multiset enumerator and json.dump before the
        # packed kernel and the one-shot writer replaced them
        a = write_points(tmp_path / "a.json", 2, [[0, 0], [1, -2], [-3, 1]])
        b = write_points(tmp_path / "b.json", 2, [[0, 0], [3, 1], [-1, 2]])
        out = tmp_path / "out.json"
        assert main(["sumset", "--a", a, "--b", b, "-k", "2", "--out", str(out)]) == 0
        assert capsys.readouterr().out == "15\n"
        assert out.read_bytes() == (
            b'{"dim":2,"points":[[-5,5],[-4,3],[-3,1],[-2,4],[-1,2],[-1,4],[0,0],[0,2],'
            b'[1,-2],[2,3],[3,1],[3,3],[4,-1],[6,2],[7,0]]}\n'
        )

    def test_output_bytes_pinned_with_huge_coordinates(self, tmp_path, capsys):
        a = write_points(tmp_path / "a.json", 3, [[0, 0, 0], [-10**20, 1, 2]])
        b = write_points(tmp_path / "b.json", 3, [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, -1]])
        out = tmp_path / "out.json"
        assert main(["sumset", "--a", a, "--b", b, "-k", "3", "--out", str(out)]) == 0
        assert capsys.readouterr().out == "40\n"
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "da237899f339b5d6bb8bf71e838ea292dad155c8d4f3328b88779578e438d24b"


class TestPointSetParsing:
    def test_duplicate_points_rejected(self, tmp_path, capsys):
        path = write_points(tmp_path / "dup.json", 2, [[0, 0], [0, 0]])
        code = main(["decompose", "--b", path, "--out", str(tmp_path / "d.json")])
        assert code == 2
        assert "duplicate point" in capsys.readouterr().err

    def test_non_integer_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 2, "points": [[0.5, 1], [0, 0]]}))
        code = main(["decompose", "--b", str(path), "--out", str(tmp_path / "d.json")])
        assert code == 2
        assert "integers" in capsys.readouterr().err

    def test_wrong_length_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 2, "points": [[0, 0, 0]]}))
        code = main(["decompose", "--b", str(path), "--out", str(tmp_path / "d.json")])
        assert code == 2

    def test_invalid_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = main(["decompose", "--b", str(path), "--out", str(tmp_path / "d.json")])
        assert code == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_deeply_nested_json_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code = main(["decompose", "--b", str(path), "--out", str(tmp_path / "d.json")])
        assert code == 2
        assert "nested too deeply" in capsys.readouterr().err


class TestDecomposeCommand:
    def test_triangle_single_simplex(self, tmp_path, triangle, capsys):
        out = tmp_path / "dec.json"
        code = main(["decompose", "--b", triangle, "--out", str(out), "--check"])
        assert code == 0
        text = capsys.readouterr().out
        assert "simplices=1" in text
        assert text.count("pass") == 4
        data = json.loads(out.read_text())
        assert data["simplices"] == [[0, 1, 2]]

    def test_fan_with_center(self, tmp_path, capsys):
        path = write_points(
            tmp_path / "fan.json", 2, [[0, 0], [2, 0], [0, 2], [2, 2], [1, 1]]
        )
        out = tmp_path / "dec.json"
        code = main(["decompose", "--b", path, "--out", str(out), "--check"])
        assert code == 0
        assert "simplices=4" in capsys.readouterr().out

    def test_more_points_than_the_recursion_limit(self, tmp_path, capsys):
        path = write_points(tmp_path / "line.json", 1, [[x] for x in range(1100)])
        code = main(["decompose", "--b", path, "--out", str(tmp_path / "dec.json")])
        assert code == 0
        assert capsys.readouterr().out == "simplices=1099\n"

    def test_byte_deterministic_output(self, tmp_path, triangle):
        out1, out2 = tmp_path / "d1.json", tmp_path / "d2.json"
        main(["decompose", "--b", triangle, "--out", str(out1)])
        main(["decompose", "--b", triangle, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_output_bytes_pinned(self, tmp_path):
        # bytes written with json.dump before both writers shared one helper
        path = write_points(tmp_path / "g.json", 2, [[0, 0], [4, 0], [5, 3], [2, 5], [-1, 3], [2, 2], [1, 1]])
        out = tmp_path / "d.json"
        assert main(["decompose", "--b", path, "--out", str(out)]) == 0
        assert out.read_bytes() == (
            b'{"adjacency":[[0,1],[0,3],[1,2],[1,4],[2,5],[3,4],[4,5],[5,6]],'
            b'"ground":[[0,0],[4,0],[5,3],[2,5],[-1,3],[2,2],[1,1]],'
            b'"simplices":[[0,4,6],[4,5,6],[3,4,5],[0,1,6],[1,5,6],[1,3,5],[1,2,3]]}\n'
        )


class TestVerifyCommand:
    def test_simplex_exact_satisfied(self, triangle, capsys):
        code = main(["verify", "--theorem", "simplex_exact", "--a", triangle, "--b", triangle, "-k", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "bound=6" in out and "actual=6" in out

    def test_json_output(self, triangle, single, capsys):
        code = main(["verify", "--theorem", "k_fold", "--a", single, "--b", triangle, "-k", "2", "--json"])
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["bound"] == -2 and rec["actual"] == 6 and rec["satisfied"]

    def test_containment_hypothesis_failure_exit_2(self, tmp_path, triangle, capsys):
        far = write_points(tmp_path / "far.json", 2, [[9, 9]])
        code = main(["verify", "--theorem", "two_sets", "--a", far, "--b", triangle])
        assert code == 2
        assert "A is not contained in conv B" in capsys.readouterr().err

    def test_missing_b_named(self, single, capsys):
        code = main(["verify", "--theorem", "k_fold", "--a", single])
        assert code == 2
        assert "--b" in capsys.readouterr().err

    def test_unexpected_b_named(self, single, triangle, capsys):
        code = main(["verify", "--theorem", "freiman", "--a", single, "--b", triangle])
        assert code == 2

    def test_subsum_instance_file(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"sets": [[0, 1, 2], [0, 1, 2]]}))
        code = main(["verify", "--theorem", "subsum", "--a", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "|S|=5" in out and "bound=5" in out

    def test_subsum_empty_set_exit_2(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"sets": [[0, 1], []]}))
        code = main(["verify", "--theorem", "subsum", "--a", str(path)])
        assert code == 2

    @pytest.mark.parametrize("sets, message", [
        ([1, 2], "nonempty list"),
        ([[1.5], [2]], "integers"),
        ([[True], [1]], "integers"),
        ("0 1 2", "must be a list"),
    ])
    def test_subsum_malformed_sets_exit_2(self, tmp_path, capsys, sets, message):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"sets": sets}))
        code = main(["verify", "--theorem", "subsum", "--a", str(path)])
        assert code == 2
        assert message in capsys.readouterr().err


class TestExploreCommand:
    def test_k_fold_campaign(self, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        code = main([
            "explore", "--theorem", "k_fold", "--dim", "2", "-k", "2",
            "--instances", "10", "--seed", "42", "--report", str(rep),
        ])
        assert code == 0
        assert "violations=0" in capsys.readouterr().out
        assert json.loads(rep.read_text())["tag"] == "k_fold"

    def test_reports_byte_identical(self, tmp_path):
        args = [
            "explore", "--theorem", "two_sets", "--dim", "2",
            "--instances", "8", "--seed", "7",
        ]
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(args + ["--report", str(r1)])
        main(args + ["--report", str(r2)])
        assert r1.read_bytes() == r2.read_bytes()

    def test_question2_dim1(self, capsys):
        code = main(["explore", "--question", "2", "--dim", "1", "--instances", "10", "--seed", "3"])
        assert code == 0
        assert "exploratory" in capsys.readouterr().out

    def test_csv_report(self, tmp_path):
        rep = tmp_path / "rep.csv"
        main([
            "explore", "--theorem", "freiman", "--dim", "2",
            "--instances", "5", "--seed", "1", "--report", str(rep),
        ])
        lines = rep.read_text().strip().splitlines()
        assert lines[0] == "seed,index,tag,bound,actual,slack"
        assert len(lines) == 6

    @pytest.mark.parametrize("tag", [["--theorem", "freiman"], ["--question", "1"], ["--question", "2"]])
    def test_dim_too_large_to_sample_is_a_usage_error(self, tag, capsys):
        # 11^20 box cells: more than random.sample can index
        code = main(["explore", *tag, "--dim", "20", "--instances", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --dim 20 too large")

    def test_question_and_theorem_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["explore", "--question", "1", "--theorem", "k_fold"])
        assert exc.value.code == 2


class _Timeout(BaseException):
    """Not an Exception, so main() cannot report it as an input or internal error."""


def _raise_timeout(signum, frame):
    raise _Timeout


def _main_within_a_second(argv):
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        return main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestOutsizedSums:
    def test_k_fold_refused_within_a_second(self, tmp_path, capsys):
        # C(79, 50) ~ 3.3e21 multisets: enumerating them would never end
        b = write_points(tmp_path / "b.json", 1, [[i] for i in range(30)])
        code = _main_within_a_second(["sumset", "--a", b, "--b", b, "-k", "50", "--out", str(tmp_path / "o.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "A + 50B needs about 2.66e+23 sums" in err and "over the limit" in err
        assert not (tmp_path / "o.json").exists()

    def test_subsum_refused_within_a_second(self, tmp_path, capsys):
        # 15 sets of 5 generic huge integers: |S| = 5^15, days of work
        rng = random.Random(7)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"sets": [[rng.randrange(10**30) for _ in range(5)] for _ in range(15)]}))
        code = _main_within_a_second(["verify", "--theorem", "subsum", "--a", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "subsum report needs about 3.51e+11 sums" in err and "over the limit" in err


class TestInternalErrors:
    def test_runtime_error_is_exit_3_not_a_usage_error(self, tmp_path, triangle, monkeypatch, capsys):
        def broken(B):
            raise RuntimeError("LP pivot limit exceeded")

        monkeypatch.setattr(cli, "decompose", broken)
        code = main(["decompose", "--b", triangle, "--out", str(tmp_path / "d.json")])
        assert code == 3
        assert capsys.readouterr().err.strip() == "internal error: decompose: LP pivot limit exceeded"

    def test_any_uncaught_exception_is_exit_3_not_a_violation(self, monkeypatch, capsys):
        def broken(cfg, tag):
            raise OverflowError("Python int too large to convert to C ssize_t")

        monkeypatch.setattr(cli, "run_campaign", broken)
        code = main(["explore", "--theorem", "freiman", "--instances", "1"])
        assert code == 3
        err = capsys.readouterr().err.strip()
        assert err == "internal error: explore: Python int too large to convert to C ssize_t"


class TestCheckLines:
    def test_gluing_alone_never_reads_as_regular_position(self, tmp_path, monkeypatch, capsys):
        # two overlaid triangulations of a square with its edge midpoints:
        # every facet is glued, but the simplices cover the square twice
        ground = PointSet.from_points([(0, 0), (2, 0), (2, 2), (0, 2), (1, 0), (2, 1), (1, 2), (0, 1)])
        overlaid = Decomposition(ground, (
            (0, 1, 2), (0, 2, 3),
            (4, 5, 6), (4, 6, 7), (0, 4, 7), (1, 4, 5), (2, 5, 6), (3, 6, 7),
        ))
        monkeypatch.setattr(cli, "decompose", lambda B: overlaid)
        path = write_points(tmp_path / "b.json", 2, [list(p) for p in ground.points])
        code = main(["decompose", "--b", path, "--out", str(tmp_path / "d.json"), "--check"])
        lines = dict(line.split("=") for line in capsys.readouterr().out.split())
        assert code == 1
        assert lines["cover"] == "fail" and lines["regular_position"] == "fail"


# ------------------------------------------------------------ loader fuzzing

JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.integers(-10**40, 10**40),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=3),
)
JSON_VALUES = st.recursive(JSON_SCALARS, lambda inner: st.lists(inner, max_size=4), max_leaves=12)
BIG_INTS = st.integers(-10**40, 10**40)
# mostly integer rows of one to three entries, so valid inputs occur too
ROWS = st.lists(
    st.one_of(st.lists(BIG_INTS, min_size=1, max_size=3), st.lists(JSON_SCALARS, max_size=3), JSON_VALUES),
    max_size=4,
)


def _run_on(doc, argv_for):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.json"
        path.write_text(json.dumps(doc))
        return main(argv_for(str(path), str(Path(tmp) / "out.json")))


class TestLoaderFuzz:
    @given(st.one_of(
        st.tuples(st.one_of(st.integers(-1, 4), JSON_SCALARS), ROWS),
        st.integers(1, 3).flatmap(lambda d: st.tuples(
            st.just(d), st.lists(st.lists(BIG_INTS, min_size=d, max_size=d), min_size=1, max_size=4))),
    ))
    @settings(max_examples=150, deadline=None)
    def test_point_set_loader_never_crashes(self, doc):
        dim, points = doc
        code = _run_on({"dim": dim, "points": points},
                       lambda a, out: ["sumset", "--a", a, "--b", a, "--out", out])
        assert code in (0, 2)

    @given(st.one_of(JSON_VALUES, ROWS, st.lists(st.lists(BIG_INTS, min_size=1, max_size=3), min_size=2, max_size=4)))
    @settings(max_examples=150, deadline=None)
    def test_subsum_loader_never_crashes(self, sets):
        code = _run_on({"sets": sets}, lambda a, out: ["verify", "--theorem", "subsum", "--a", a])
        assert code in (0, 1, 2)
