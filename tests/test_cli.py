import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import lieposet
from conftest import cycles_equal
from lieposet.cli import main
from lieposet.liealg import build_type_a, index_formula_h2
from lieposet.posets import make_poset, poset_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def forest_file(tmp_path, two_tree_forest):
    return write_json(tmp_path, "forest.json", poset_to_json(two_tree_forest))


@pytest.fixture
def cycle_file(tmp_path, six_element_cycle_poset):
    return write_json(tmp_path, "cycle.json", poset_to_json(six_element_cycle_poset))


class TestClassify:
    def test_forest_is_contact_with_index_one(self, capsys, forest_file, two_tree_forest):
        code, out = run_cli(capsys, "classify", "--seed", "7", forest_file)
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "Contact"
        assert report["index"]["formula"] == 1
        assert report["index"]["randomized"] == 1
        assert report["certificate"]["contact_form"]
        assert report["center_dim"] == 1
        # the report is reproducible by the underlying library calls
        from lieposet.contact import classify_h2
        from lieposet.liealg import index_formula_h2

        assert classify_h2(two_tree_forest).contact == (report["verdict"] == "Contact")
        assert index_formula_h2(two_tree_forest) == report["index"]["formula"]

    def test_large_antichain_in_linear_memory(self, capsys, tmp_path):
        # the center of a 5,000-element antichain's algebra is all of it;
        # as basis vectors it would hold 25 million coordinates
        path = write_json(tmp_path, "antichain.json", {"n": 5000, "relations": []})
        tracemalloc.start()
        try:
            code = main(["classify", "--seed", "0", path])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["center_dim"] == 4999
        assert report["betti"] == [5000]
        assert peak < 20 * 2**20

    def test_cycle_poset_reports_captioned_cycle(self, capsys, cycle_file):
        code, out = run_cli(capsys, "classify", "--seed", "7", cycle_file)
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "NotContact"
        assert cycles_equal(report["hasse_cycle"], [1, 3, 5, 4])

    def test_connected_height_one(self, capsys, tmp_path):
        path = write_json(tmp_path, "vee.json", {"n": 3, "relations": [[1, 2], [1, 3]]})
        code, out = run_cli(capsys, "classify", "--seed", "1", path)
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "NotContact"
        assert report["obstruction"]["kind"] == "connected-height-one"

    def test_contact_sequence_certificate(self, capsys, tmp_path):
        path = write_json(tmp_path, "chain3.json", {"n": 3, "relations": [[1, 2], [2, 3]]})
        code, out = run_cli(capsys, "classify", "--seed", "1", path)
        report = json.loads(out)
        assert report["certificate"]["sequence"]["steps"][0]["block"] == "P111"
        assert report["certificate"]["contact_form"] == [
            [1, 3, "1"],
            [2, 2, "1"],
            [2, 3, "1"],
        ]

    def test_malformed_input_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, out = run_cli(capsys, "classify", "--seed", "1", str(path))
        assert code == 2
        assert "error" in json.loads(out)

    @pytest.mark.parametrize(
        "data",
        [
            {"n": 2.5, "relations": []},
            {"n": True, "relations": []},
            {"n": 3, "relations": [[1, 2.7]]},
        ],
    )
    def test_non_integer_poset_exits_two(self, capsys, tmp_path, data):
        path = write_json(tmp_path, "bad.json", data)
        code, out = run_cli(capsys, "classify", "--seed", "1", path)
        assert code == 2
        assert json.loads(out)["error"]["type"] == "OutOfRange"

    def test_height_three_rejected(self, capsys, tmp_path):
        path = write_json(
            tmp_path, "chain4.json", {"n": 4, "relations": [[1, 2], [2, 3], [3, 4]]}
        )
        code, out = run_cli(capsys, "classify", "--seed", "1", path)
        assert code == 2

    def test_stdin_mode(self, tmp_path, monkeypatch, capsys):
        import io

        monkeypatch.setattr(
            "sys.stdin", io.StringIO(json.dumps({"n": 2, "relations": []}))
        )
        code, out = run_cli(capsys, "classify", "--seed", "1", "-")
        assert code == 0
        assert json.loads(out)["verdict"] == "Contact"


class TestSweep:
    def test_small_sweep_counts(self, capsys):
        code, out = run_cli(capsys, "sweep", "--max-n", "3", "--seed", "11")
        assert code == 0
        report = json.loads(out)
        assert report["discrepancy_count"] == 0
        assert report["counts"]["classes"] == 8
        assert report["counts"]["contact"] == 3

    def test_byte_identical_reruns(self, capsys):
        _, first = run_cli(capsys, "sweep", "--max-n", "4", "--seed", "3")
        _, second = run_cli(capsys, "sweep", "--max-n", "4", "--seed", "3")
        assert first == second

    def test_size_bound_exit(self, capsys):
        code, _ = run_cli(capsys, "sweep", "--max-n", "12", "--seed", "0")
        assert code == 4


class TestBuild:
    def test_one_step_script(self, capsys, tmp_path):
        path = write_json(tmp_path, "seq.json", {"steps": [{"block": "P111"}]})
        code, out = run_cli(capsys, "build", path)
        assert code == 0
        report = json.loads(out)
        assert report["poset"] == {"n": 3, "relations": [[1, 2], [1, 3], [2, 3]]}
        assert report["extended_determinant"] == "4"
        assert report["kernel_matches"] is True

    def test_two_step_script(self, capsys, tmp_path):
        path = write_json(
            tmp_path,
            "seq.json",
            {"steps": [{"block": "P111"}, {"block": "P112", "rule": "C", "c": 1}]},
        )
        code, out = run_cli(capsys, "build", path)
        assert code == 0
        report = json.loads(out)
        assert report["poset"]["n"] == 6
        assert report["extended_determinant"] not in ("0", "0/1")
        assert report["kernel_matches"] is True

    def test_banned_rule_rejected(self, capsys, tmp_path):
        path = write_json(
            tmp_path,
            "seq.json",
            {
                "steps": [
                    {"block": "P111"},
                    {"block": "P11", "rule": "E1", "c": 1, "a1": 3},
                ]
            },
        )
        code, out = run_cli(capsys, "build", path)
        assert code == 2
        assert "contact gluing rule" in json.loads(out)["error"]["message"]

    def test_double_chain_block_rejected(self, capsys, tmp_path):
        path = write_json(
            tmp_path,
            "seq.json",
            {"steps": [{"block": "P111"}, {"block": "P111", "rule": "C", "c": 1}]},
        )
        code, out = run_cli(capsys, "build", path)
        assert code == 2
        assert "exactly once" in json.loads(out)["error"]["message"]

    @pytest.mark.parametrize(
        "steps",
        [
            [{"block": "P111"}, {"block": "P112", "rule": "C", "c": True}],
            [{"block": "P111"}, {"block": "P112", "rule": "C", "c": 1.0}],
            [{"block": "P111"}, {"block": "P112", "rule": "C", "c": "1"}],
            [{"block": "P111"}, {"block": "P11", "rule": "A1", "c": 1, "a1": None}],
            [{"block": "P111"}, {"block": "P112", "rule": 3, "c": 1}],
            [{"block": "P111"}, {"block": ["P112"], "rule": "C", "c": 1}],
            [{"block": []}],
        ],
    )
    def test_malformed_step_exits_two(self, capsys, tmp_path, steps):
        path = write_json(tmp_path, "seq.json", {"steps": steps})
        code, out = run_cli(capsys, "build", path)
        assert code == 2
        assert json.loads(out)["error"]["type"] == "InvalidSequence"


class TestIndexCommand:
    def test_raw_algebra_file(self, capsys, tmp_path):
        data = {
            "dim": 7,
            "brackets": [
                [1, 4, {"4": 2}],
                [2, 4, {"4": 1}],
                [1, 5, {"5": 1}],
                [2, 5, {"5": 2}],
                [3, 5, {"5": 1}],
                [1, 6, {"6": 1}],
                [3, 6, {"6": 1}],
                [2, 7, {"7": 1}],
                [3, 7, {"7": 2}],
            ],
        }
        path = write_json(tmp_path, "alg.json", data)
        code, out = run_cli(capsys, "index", "--seed", "5", path)
        assert code == 0
        report = json.loads(out)
        assert report["randomized"] == 1
        assert report["certified"] == 1

    def test_poset_file(self, capsys, tmp_path):
        path = write_json(tmp_path, "p.json", {"n": 3, "relations": [[1, 2], [2, 3]]})
        code, out = run_cli(capsys, "index", "--seed", "5", path)
        report = json.loads(out)
        assert report["formula"] == 1 and report["randomized"] == 1

    @pytest.mark.parametrize(
        "data",
        [
            {"brackets": []},
            {"dim": None, "brackets": []},
            {"dim": 3, "brackets": [[1, 2, 5]]},
            {"dim": 3, "brackets": [[1, 2, {"9": 1}]]},
            {"dim": 3, "brackets": [[1, 2, {"3": 0.5}]]},
            {"dim": 3, "brackets": [[1, 2, {"3": "1.5"}]]},
            {"dim": 3, "brackets": [[1, 2, {"3": "1e10000000"}]]},
            {"dim": -1, "brackets": []},
        ],
    )
    def test_malformed_raw_algebra_exits_two(self, capsys, tmp_path, data):
        path = write_json(tmp_path, "alg.json", data)
        code, out = run_cli(capsys, "index", "--seed", "5", path)
        assert code == 2
        assert "error" in json.loads(out)

    def test_dense_raw_poset_algebra_certifies(self, capsys, tmp_path):
        # a dim-8 poset algebra entered as a raw algebra in a seeded
        # unimodular basis, so every Kirillov entry is a dense linear form:
        # the certified index is the poset's formula index
        P = make_poset(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
        alg = build_type_a(P)
        path = write_json(tmp_path, "dense.json", _in_unimodular_basis(alg, random.Random(3)))
        code, out = run_cli(capsys, "index", "--seed", "5", path)
        assert code == 0
        report = json.loads(out)
        assert report["dim"] == 8
        assert report["certified"] == report["randomized"] == index_formula_h2(P) == 2


def _in_unimodular_basis(alg, rng) -> dict:
    """Raw-algebra JSON of `alg` in the basis f_i = sum_k U[i][k] b_k, for U
    a product of random integer elementary matrices (so U^-1 is integral):
    [f_i, f_j] = sum_t w_t f_t with w = (coordinates over b) U^-1."""
    d = alg.dim
    U = [[int(i == j) for j in range(d)] for i in range(d)]
    Uinv = [row[:] for row in U]
    for _ in range(3 * d):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-2, -1, 1, 2))
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
        for row in Uinv:
            row[j] -= c * row[i]
    brackets = []
    for i in range(d):
        for j in range(i + 1, d):
            v = [0] * d
            for k in range(d):
                for m in range(d):
                    for t, c in alg.bracket(k, m).items():
                        v[t] += U[i][k] * U[j][m] * c
            w = {str(t + 1): str(x) for t in range(d) if (x := sum(v[k] * Uinv[k][t] for k in range(d)))}
            if w:
                brackets.append([i + 1, j + 1, w])
    return {"dim": d, "brackets": brackets}


class TestHomology:
    def test_poset_input(self, capsys, tmp_path):
        path = write_json(
            tmp_path, "p.json", {"n": 4, "relations": [[1, 2], [2, 3], [2, 4]]}
        )
        code, out = run_cli(capsys, "homology", path)
        assert code == 0
        report = json.loads(out)
        assert report["face_counts"] == [4, 5, 2]
        assert report["betti"] == [1, 0, 0]

    def test_complex_input(self, capsys, tmp_path):
        path = write_json(
            tmp_path,
            "k.json",
            {"faces": [[1], [2], [3], [1, 2], [2, 3], [1, 3], [1, 2, 3]]},
        )
        code, out = run_cli(capsys, "homology", path)
        report = json.loads(out)
        assert report["betti"] == [1, 0, 0]
        assert report["euler_characteristic"] == 1

    def test_size_bound_exit(self, capsys, tmp_path):
        path = write_json(
            tmp_path,
            "chain5.json",
            {"n": 5, "relations": [[1, 2], [2, 3], [3, 4], [4, 5]]},
        )
        code, _ = run_cli(capsys, "homology", path)
        assert code == 4

    def test_cohomology_size_bound_exit(self, capsys, tmp_path):
        # within the bound the report carries the cohomology; a dim-15
        # algebra (past the bound of 14) must end in exit 4, not drop it
        small = write_json(tmp_path, "fork.json", {"n": 3, "relations": [[1, 3], [2, 3]]})
        code, out = run_cli(capsys, "homology", "--cohomology", small)
        assert code == 0
        assert json.loads(out)["ce_cohomology"] == [0, 0, 0]
        rel = [[1, 6], [2, 6], [3, 6], [4, 6], [5, 6], [1, 5], [2, 5], [3, 5], [4, 5], [1, 4]]
        big = write_json(tmp_path, "dim15.json", {"n": 6, "relations": rel})
        code, out = run_cli(capsys, "homology", "--cohomology", big)
        assert code == 4
        assert json.loads(out)["error"]["type"] == "SizeBound"

    def test_large_star_in_linear_memory(self, capsys, tmp_path):
        # the boundary rows of a 2,000-leaf star stay sparse: the hub's
        # row holds 2,000 entries, not a 2,001 x 2,000 dense matrix
        rel = [[1, j] for j in range(2, 2002)]
        path = write_json(tmp_path, "star.json", {"n": 2001, "relations": rel})
        tracemalloc.start()
        try:
            code = main(["homology", path])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["betti"] == [1, 0]
        assert peak < 20 * 2**20

    @pytest.mark.parametrize(
        "data",
        [
            {"faces": [list(range(1, 41))]},
            {"n": 40, "relations": [[i, i + 1] for i in range(1, 40)]},
        ],
    )
    def test_size_bound_before_closing(self, capsys, tmp_path, data):
        # a 39-simplex, and the order complex of a 40-chain: each has about
        # 2^40 faces, so the guard must fire before any of them is built
        path = write_json(tmp_path, "big.json", data)
        code, out = run_cli(capsys, "homology", path)
        assert code == 4
        assert json.loads(out)["error"]["type"] == "SizeBound"

    def test_largest_face_within_bound(self, capsys, tmp_path):
        path = write_json(tmp_path, "k.json", {"faces": [[1, 2, 3, 4, 4]]})
        code, out = run_cli(capsys, "homology", path)
        assert code == 0
        assert json.loads(out)["face_counts"] == [4, 6, 4, 1]

    @pytest.mark.parametrize(
        "data", [{"faces": 5}, {"faces": [5]}, {"faces": [[1, "a"]]}, {"faces": [[1, True]]}]
    )
    def test_malformed_complex_exits_two(self, capsys, tmp_path, data):
        path = write_json(tmp_path, "k.json", data)
        code, out = run_cli(capsys, "homology", path)
        assert code == 2
        assert json.loads(out)["error"]["type"] == "OutOfRange"


class TestExportDot:
    def test_dot_output(self, capsys, tmp_path):
        path = write_json(
            tmp_path, "p.json", {"n": 4, "relations": [[1, 2], [2, 3], [2, 4]]}
        )
        code, out = run_cli(capsys, "export-dot", path)
        assert code == 0
        assert out.startswith("digraph poset {")
        assert "rank=same" in out and '"2" -> "4";' in out


def _in_tree_env() -> dict:
    """The environment for a child Python that imports the package this
    suite imported: a relative PYTHONPATH such as "src" does not resolve
    from another cwd."""
    package_root = str(Path(lieposet.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


# Runs each (stdin, argv) pair through cli.main with every `import numpy`
# failing, and exits nonzero at the first command that does not exit 0.
_NO_NUMPY_SCRIPT = """
import io, json, sys
sys.modules["numpy"] = None
from lieposet.cli import main
for text, argv in json.loads(sys.argv[1]):
    sys.stdin = io.StringIO(text)
    code = main(argv)
    if code != 0:
        sys.exit(f"{argv} exited {code}")
"""


class TestSubprocessEntry:
    def test_module_invocation_byte_identical(self, tmp_path):
        env = _in_tree_env()
        cmd = [sys.executable, "-m", "lieposet.cli", "sweep", "--max-n", "3", "--seed", "2"]
        a = subprocess.run(cmd, capture_output=True, cwd=tmp_path, env=env)
        b = subprocess.run(cmd, capture_output=True, cwd=tmp_path, env=env)
        assert a.returncode == 0, a.stderr.decode()
        assert a.stdout == b.stdout

    def test_runtime_needs_no_numpy(self, tmp_path):
        # the sweep and the README examples, each of which reaches rank_mod_p
        cases = [
            ["", ["sweep", "--max-n", "5", "--seed", "7"]],
            ['{"n": 4, "relations": [[1,2],[2,3],[2,4]]}', ["classify", "--seed", "7", "-"]],
            ['{"dim": 3, "brackets": [[1, 2, {"3": 1}]]}', ["index", "--seed", "7", "-"]],
            [
                '{"steps": [{"block": "P111"}, {"block": "P112", "rule": "C", "c": 1}]}',
                ["build", "-"],
            ],
        ]
        cmd = [sys.executable, "-c", _NO_NUMPY_SCRIPT, json.dumps(cases)]
        res = subprocess.run(cmd, capture_output=True, cwd=tmp_path, env=_in_tree_env())
        assert res.returncode == 0, res.stderr.decode()
