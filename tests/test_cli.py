"""End-to-end CLI behavior: formats, exit codes, determinism."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import mpoly.cli
from mpoly import (
    SearchOutcome,
    SearchStatus,
    build_instance,
    is_threshold_proof,
    max_independent_set,
    nonneg_parts,
    parse_graph,
    write_graph,
)
from mpoly.cli import run_pipeline
from mpoly.linalg import matrices_to_json

import corpus

C5_TEXT = "c five cycle\np edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n"
K3_TEXT = "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"
MMATRIX_JSON = '{"n":2,"entries":[["2","-1"],["-1","2"]],"exact":true}\n'
NOT_MMATRIX_JSON = '{"n":2,"entries":[["1","-2"],["-2","1"]],"exact":true}\n'
FLOAT_MMATRIX_JSON = '{"n":2,"entries":[[2.0,-1.0],[-1.0,2.0]],"exact":false}\n'
# singular over the rationals (0.1 * 0.9 = 0.3 * 0.3), not in float64
DECIMAL_SINGULAR_JSON = '{"n":2,"entries":[[0.1,-0.3],[-0.3,0.9]],"exact":false}\n'


def mpoly_cmd(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "mpoly", *args],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "c5.col").write_text(C5_TEXT)
    (tmp_path / "k3.col").write_text(K3_TEXT)
    (tmp_path / "good.json").write_text(MMATRIX_JSON)
    (tmp_path / "bad_matrix.json").write_text(NOT_MMATRIX_JSON)
    (tmp_path / "garbage.json").write_text("{not json")
    return tmp_path


class TestCertifyCommand:
    def test_yes_exit_zero(self, workspace):
        res = mpoly_cmd("certify", str(workspace / "good.json"), "--json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["consensus"] == "YES"
        assert set(payload["verdicts"]) == {
            "E17",
            "D16",
            "N38",
            "POS_STABLE",
            "RHO_SPLIT",
        }

    def test_no_exit_one(self, workspace):
        res = mpoly_cmd("certify", str(workspace / "bad_matrix.json"))
        assert res.returncode == 1

    def test_malformed_input_exit_65(self, workspace):
        res = mpoly_cmd("certify", str(workspace / "garbage.json"))
        assert res.returncode == 65

    def test_missing_file_exit_65(self, workspace):
        res = mpoly_cmd("certify", str(workspace / "nope.json"))
        assert res.returncode == 65

    def test_exact_flag_reads_float_file_as_rationals(self, tmp_path):
        path = tmp_path / "float.json"
        path.write_text(FLOAT_MMATRIX_JSON)
        res = mpoly_cmd("certify", str(path), "--exact", "--json")
        assert res.returncode == 0
        assert json.loads(res.stdout)["consensus"] == "YES"

    def test_exact_flag_reads_decimals_as_written(self, tmp_path):
        path = tmp_path / "decimal.json"
        path.write_text(DECIMAL_SINGULAR_JSON)
        as_float = json.loads(mpoly_cmd("certify", str(path), "--json").stdout)
        as_exact = json.loads(
            mpoly_cmd("certify", str(path), "--exact", "--json").stdout
        )
        assert as_float["verdicts"]["E17"]["status"] == "MARGINAL"
        assert as_exact["verdicts"]["E17"]["status"] == "NO"
        assert as_exact["verdicts"]["N38"]["status"] == "NO"

    def test_exact_flag_non_finite_entry_exit_65(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"n":1,"entries":[[NaN]],"exact":false}')
        assert mpoly_cmd("certify", str(path), "--exact").returncode == 65

    @pytest.mark.parametrize(
        "entries, name, margin, consensus", corpus.BEYOND_FLOAT64_MARGINS
    )
    def test_exact_margin_beyond_float64_saturates(
        self, tmp_path, entries, name, margin, consensus
    ):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 2, "entries": entries, "exact": True}))
        res = mpoly_cmd("certify", str(path), "--json")
        assert res.stderr == ""
        assert res.returncode == {"YES": 0, "NO": 1}.get(consensus, 2)
        payload = json.loads(res.stdout)
        assert payload["consensus"] == consensus
        assert payload["margins"][name] == ("inf" if margin > 0 else "-inf")


class TestReduceCommand:
    def test_reduce_is_byte_idempotent(self, workspace):
        first = mpoly_cmd("reduce", str(workspace / "c5.col"), "2")
        second = mpoly_cmd("reduce", str(workspace / "c5.col"), "2")
        assert first.returncode == 0
        assert first.stdout == second.stdout
        graph = parse_graph(C5_TEXT)
        expected = matrices_to_json(build_instance(graph, 2).gadgets)
        assert first.stdout == expected

    def test_corner_entry_for_empty_graph(self, tmp_path):
        (tmp_path / "e2.col").write_text("p edge 2 0\n")
        res = mpoly_cmd("reduce", str(tmp_path / "e2.col"), "2")
        assert res.returncode == 0
        assert '"1/2"' in res.stdout

    def test_j_zero_usage_error(self, workspace):
        res = mpoly_cmd("reduce", str(workspace / "c5.col"), "0")
        assert res.returncode == 64

    def test_j_too_large_usage_error(self, workspace):
        res = mpoly_cmd("reduce", str(workspace / "c5.col"), "6")
        assert res.returncode == 64

    def test_unwritable_output_usage_error(self, workspace):
        out = workspace / "missing" / "inst.json"
        res = mpoly_cmd("reduce", str(workspace / "c5.col"), "1", "-o", str(out))
        assert res.returncode == 64
        assert res.stderr.startswith(f"mpoly: cannot write {out}")
        assert "Traceback" not in res.stderr


class TestCombineCommand:
    def test_round_trip_through_search_input(self, workspace, tmp_path):
        inst = tmp_path / "inst.json"
        mpoly_cmd("reduce", str(workspace / "c5.col"), "1", "-o", str(inst))
        res = mpoly_cmd(
            "combine",
            str(inst),
            "--weights",
            "1/5,1/5,1/5,1/5,1/5",
        )
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["exact"] is True
        assert payload["entries"][5][5] == "1"

    def test_weight_count_mismatch(self, workspace, tmp_path):
        inst = tmp_path / "inst.json"
        mpoly_cmd("reduce", str(workspace / "c5.col"), "1", "-o", str(inst))
        res = mpoly_cmd("combine", str(inst), "--weights", "1/2,1/2")
        assert res.returncode == 64

    def test_bad_weights(self, workspace, tmp_path):
        inst = tmp_path / "inst.json"
        mpoly_cmd("reduce", str(workspace / "c5.col"), "1", "-o", str(inst))
        res = mpoly_cmd("combine", str(inst), "--weights", "1,1,1,1,1")
        assert res.returncode == 64

    def test_unwritable_output_usage_error(self, workspace, tmp_path):
        inst = tmp_path / "inst.json"
        mpoly_cmd("reduce", str(workspace / "c5.col"), "1", "-o", str(inst))
        out = tmp_path / "missing" / "combo.json"
        res = mpoly_cmd("combine", str(inst), "--weights", "1/5,1/5,1/5,1/5,1/5",
                        "-o", str(out))
        assert res.returncode == 64
        assert res.stderr.startswith(f"mpoly: cannot write {out}")
        assert "Traceback" not in res.stderr

    def test_exact_flag_reads_entries_beyond_float64(self, tmp_path):
        # --exact parses once, as rationals, so 1e400 needs no float copy;
        # certify needs one and refuses it
        family = '[{"n":2,"entries":[[1e400,-1],[-1,2]],"exact":false}]'
        (tmp_path / "family.json").write_text(family)
        (tmp_path / "one.json").write_text(family[1:-1])
        res = mpoly_cmd("combine", str(tmp_path / "family.json"), "--weights", "1",
                        "--exact")
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["entries"][0][0] == str(10**400)
        res = mpoly_cmd("certify", str(tmp_path / "one.json"), "--exact")
        assert res.returncode == 65
        assert "beyond the float64 range" in res.stderr

    @pytest.mark.parametrize("text", [
        "{not json", "[]", "[1]", '[{"n":2}]',
        '[{"n":2,"entries":[[1,2],[3]],"exact":false}]',
        '[{"n":1,"entries":[[1e5000]],"exact":false}]',
        # 10^4300 is read, but its 4,301 digits are past the limit of str(int)
        '[{"n":1,"entries":[["1e4300"]],"exact":true}]',
    ], ids=["invalid-json", "empty-list", "not-an-object", "no-entries",
            "not-square", "exponent-past-the-digit-limit",
            "output-past-the-digit-limit"])
    def test_exact_flag_malformed_family_exit_65(self, tmp_path, text):
        path = tmp_path / "family.json"
        path.write_text(text)
        res = mpoly_cmd("combine", str(path), "--weights", "1", "--exact")
        assert res.returncode == 65
        assert res.stderr.startswith("mpoly: ") and res.stderr.count("\n") == 1
        assert "Traceback" not in res.stderr


class TestOracleCommands:
    def test_alpha(self, workspace):
        res = mpoly_cmd("alpha", str(workspace / "c5.col"), "--json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["alpha"] == 2
        assert len(payload["witness"]) == 2

    @pytest.mark.parametrize("graph, alpha", [(corpus.cycle(5), 2),
                                              (corpus.petersen(), 4)],
                             ids=["C5", "Petersen"])
    def test_alpha_json_carries_the_proof(self, tmp_path, graph, alpha):
        # the tree proves alpha <= alpha, and the witness alpha >= alpha
        path = tmp_path / "g.col"
        path.write_text(write_graph(graph))
        res = mpoly_cmd("alpha", str(path), "--json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["alpha"] == alpha
        tree = corpus.tree_from_json(payload["proof"])
        assert is_threshold_proof(graph, tree, alpha)
        assert not is_threshold_proof(graph, tree, alpha - 1)
        human = mpoly_cmd("alpha", str(path))
        assert human.stdout == (f"alpha={alpha}\nwitness={payload['witness']}\n"
                                f"nodes={payload['node_count']}\n")

    def test_alpha_node_budget_exhausted_exit_two(self, tmp_path):
        # a 3-node threshold tree proves alpha(Petersen) <= 4
        path = tmp_path / "petersen.col"
        path.write_text(write_graph(corpus.petersen()))
        res = mpoly_cmd("alpha", str(path), "--node-budget", "2", "--json")
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == "mpoly: exceeded node budget 2\n"

    def test_ms_solve_deterministic(self, workspace):
        args = (
            "ms-solve",
            str(workspace / "c5.col"),
            "--restarts",
            "40",
            "--seed",
            "3",
            "--json",
        )
        first = mpoly_cmd(*args)
        second = mpoly_cmd(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        payload = json.loads(first.stdout)
        assert abs(payload["value"] - 0.5) < 1e-6
        assert payload["alpha_lower_bound"] == 2

    def test_ms_solve_reports_a_checkable_independent_set(self, workspace, tmp_path):
        for g in (parse_graph(C5_TEXT), corpus.petersen(), corpus.gnp(9, 0.35, 4)):
            path = tmp_path / "g.col"
            path.write_text(write_graph(g))
            res = mpoly_cmd("ms-solve", str(path), "--json")
            assert res.returncode == 0
            found = [v - 1 for v in json.loads(res.stdout)["independent_set"]]
            assert found == sorted(found) and all(0 <= v < g.n for v in found)
            assert not any(g.has_edge(u, v) for u in found for v in found)
            assert 1 <= len(found) <= max_independent_set(g).alpha
        human = mpoly_cmd("ms-solve", str(workspace / "c5.col"))
        assert "independent_set=[" in human.stdout

    def test_ms_solve_writes_nothing_to_stderr(self, tmp_path):
        # a ray of rounding noise on this graph used to divide 0 by 0
        path = tmp_path / "g.col"
        path.write_text(write_graph(corpus.gnp(6, 0.5, 10378)))
        res = mpoly_cmd("ms-solve", str(path), "--restarts", "13", "--seed", "12")
        assert res.returncode == 0
        assert res.stderr == ""

    def test_ms_solve_single_round(self, workspace):
        args = ("ms-solve", str(workspace / "c5.col"), "--json", "--iters", "1")
        first = mpoly_cmd(*args)
        second = mpoly_cmd(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        payload = json.loads(first.stdout)
        assert math.isfinite(payload["value"])
        assert payload["value"] >= 0.5 - 1e-9


class TestSearchCommands:
    def test_search_feasible_exit_zero(self, workspace, tmp_path):
        # the float copy is not recognised as a gadget family, so it takes the
        # ascent; the exact family is answered from the greedy independent set
        inst = tmp_path / "inst.json"
        mpoly_cmd("reduce", str(workspace / "c5.col"), "1", "-o", str(inst))
        res = mpoly_cmd("search", str(inst), "--float", "--json", "--seed", "0")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["status"] == "FEASIBLE"
        assert payload["certificate"] is not None
        assert payload["budget_spent"] > 0
        res = mpoly_cmd("search", str(inst), "--json", "--seed", "0")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["status"] == "FEASIBLE"
        assert payload["budget_spent"] == 0
        weights = [Fraction(w) for w in payload["certificate"]]
        support = [v for v, w in enumerate(weights) if w]
        assert len(support) > 1
        assert all(weights[v] == Fraction(1, len(support)) for v in support)
        g = parse_graph(C5_TEXT)
        assert not any(g.has_edge(u, v) for u in support for v in support)

    def test_search_unknown_exit_two(self, workspace, tmp_path):
        # the float copy is not recognised as a gadget family; the exact
        # family is, and K3 is one clique
        inst = tmp_path / "inst.json"
        mpoly_cmd("reduce", str(workspace / "k3.col"), "1", "-o", str(inst))
        res = mpoly_cmd("search", str(inst), "--float", "--json", "--budget", "3000")
        assert res.returncode == 2
        assert json.loads(res.stdout)["status"] == "UNKNOWN"
        res = mpoly_cmd("search", str(inst), "--json", "--budget", "3000")
        assert res.returncode == 1
        payload = json.loads(res.stdout)
        assert payload["status"] == "INFEASIBLE"
        assert payload["budget_spent"] == 0
        assert payload["threshold_proof"] == {
            "tree": [[1, 2, 3]], "rests_on": "Cauchy-Schwarz"}
        cover = corpus.tree_from_json(payload["threshold_proof"]["tree"])
        assert is_threshold_proof(parse_graph(K3_TEXT), cover, 1)

    def test_search_petersen_j4_infeasible_exit_one(self, tmp_path):
        # Petersen at j = 4: alpha = j, and no 4 cliques cover it, so the
        # gadget decision answers from a threshold tree without evaluating
        # a point
        g = corpus.petersen()
        path = tmp_path / "petersen4.json"
        path.write_text(matrices_to_json(build_instance(g, 4).gadgets))
        res = mpoly_cmd("search", str(path), "--json")
        assert res.returncode == 1
        payload = json.loads(res.stdout)
        assert payload["status"] == "INFEASIBLE"
        assert payload["budget_spent"] == 0
        assert payload["threshold_proof"]["rests_on"] == "Motzkin-Straus theorem"
        tree = corpus.tree_from_json(payload["threshold_proof"]["tree"])
        assert is_threshold_proof(g, tree, 4)

    @pytest.mark.parametrize("graph, j, rests_on", [
        (corpus.complete(3), 1, "Cauchy-Schwarz"),
        (corpus.petersen(), 4, "Motzkin-Straus theorem"),
    ], ids=["K3", "Petersen"])
    def test_threshold_proof_round_trips_through_json(self, tmp_path, graph, j,
                                                      rests_on):
        path = tmp_path / "family.json"
        path.write_text(matrices_to_json(build_instance(graph, j).gadgets))
        res = mpoly_cmd("search", str(path), "--json")
        assert res.returncode == 1
        proof = json.loads(res.stdout)["threshold_proof"]
        assert proof["rests_on"] == rests_on
        tree = corpus.tree_from_json(proof["tree"])
        assert is_threshold_proof(graph, tree, j)
        assert not is_threshold_proof(graph, tree, j - 1)

    @pytest.mark.parametrize("gap_tol", ["0", "-1", "nan", "inf"])
    def test_symmetric_gap_tol_must_be_positive_and_finite(self, workspace, gap_tol):
        res = mpoly_cmd("search", str(workspace / "good.json"), "--symmetric",
                        f"--gap-tol={gap_tol}")
        assert res.returncode == 64
        assert "--gap-tol" in res.stderr

    def test_search_exact_flag_gives_exact_certificate(self, tmp_path):
        path = tmp_path / "family.json"
        path.write_text(
            "[" + FLOAT_MMATRIX_JSON.strip() + ","
            '{"n":2,"entries":[[-1.0,0.5],[0.5,-1.0]],"exact":false}]'
        )
        res = mpoly_cmd("search", str(path), "--exact", "--json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["status"] == "FEASIBLE"
        assert payload["certificate"] == ["1", "0"]

    def test_symmetric_infeasible_exit_one(self, tmp_path):
        mats = (
            '[{"n":2,"entries":[[-1.0,0.0],[0.0,-1.0]],"exact":false},'
            '{"n":2,"entries":[[-2.0,0.0],[0.0,-2.0]],"exact":false}]'
        )
        path = tmp_path / "neg.json"
        path.write_text(mats)
        res = mpoly_cmd("search", str(path), "--symmetric", "--json")
        assert res.returncode == 1
        assert json.loads(res.stdout)["status"] == "INFEASIBLE"

    def test_radius_min(self, tmp_path):
        mats = (
            '[{"n":2,"entries":[[0.0,1.0],[1.0,0.0]],"exact":false},'
            '{"n":2,"entries":[[0.0,0.0],[0.0,0.0]],"exact":false}]'
        )
        path = tmp_path / "nn.json"
        path.write_text(mats)
        res = mpoly_cmd("radius-min", str(path), "--json", "--budget", "2000")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["below_one"] is True
        assert payload["spectral_radius"] < 0.5

    def test_radius_min_negative_entry_is_input_error(self, tmp_path):
        path = tmp_path / "neg_entry.json"
        path.write_text('[{"n":1,"entries":[[-1.0]],"exact":false}]')
        res = mpoly_cmd("radius-min", str(path))
        assert res.returncode == 65

    def test_radius_min_exact_gadget_parts(self, tmp_path):
        # I minus the gadgets of C5 at j = 1: the exact minimum sits at the
        # uniform point on a maximum independent set, and alpha = 2 > j
        path = tmp_path / "parts.json"
        path.write_text(matrices_to_json(nonneg_parts(parse_graph(C5_TEXT), 1)))
        res = mpoly_cmd("radius-min", str(path), "--json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["below_one"] is True
        assert payload["cross_check_consensus"] == "YES"
        weights = [Fraction(w) for w in payload["weights"]]
        support = [v for v, w in enumerate(weights) if w]
        assert len(support) == 2
        assert all(weights[v] == Fraction(1, 2) for v in support)
        g = parse_graph(C5_TEXT)
        assert not g.has_edge(*support)

    def test_hurwitz_exact_negated_gadgets_exit_one(self, tmp_path):
        # C4 splits into the cliques {1, 2} and {3, 4}, so alpha = 2 = j
        g = corpus.cycle(4)
        path = tmp_path / "negated.json"
        path.write_text(matrices_to_json([-m for m in build_instance(g, 2).gadgets]))
        res = mpoly_cmd("hurwitz-search", str(path), "--json")
        assert res.returncode == 1
        payload = json.loads(res.stdout)
        assert payload["status"] == "INFEASIBLE"
        assert payload["budget_spent"] == 0
        proof = payload["threshold_proof"]
        assert proof["rests_on"] == "Cauchy-Schwarz"
        assert all(1 <= v <= 4 for part in proof["tree"] for v in part)
        assert is_threshold_proof(g, corpus.tree_from_json(proof["tree"]), 2)

    def test_hurwitz(self, tmp_path):
        path = tmp_path / "negid.json"
        path.write_text('[{"n":2,"entries":[[-1.0,0.0],[0.0,-1.0]],"exact":false}]')
        res = mpoly_cmd("hurwitz-search", str(path), "--json")
        assert res.returncode == 0
        assert json.loads(res.stdout)["status"] == "FEASIBLE"


class TestPipelineCommand:
    def test_c5_j1_agree(self, workspace):
        res = mpoly_cmd("pipeline", str(workspace / "c5.col"), "1", "--json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["verdict"] == "AGREE"
        assert payload["search"]["status"] == "FEASIBLE"
        assert payload["alpha"] == 2

    def test_c5_j2_agree_infeasible(self, workspace):
        # alpha = j = 2 and the greedy partition has 3 cliques, {1, 2},
        # {3, 4} and {5}: one link on vertex 5, without whose closed
        # neighbourhood {2, 3} is one clique, and then the path 1-2-3-4 is
        # two
        res = mpoly_cmd("pipeline", str(workspace / "c5.col"), "2", "--json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["verdict"] == "AGREE"
        assert payload["search"]["status"] == "INFEASIBLE"
        assert payload["search"]["budget_spent"] == 0
        assert payload["search"]["threshold_proof"] == {
            "tree": {"links": [{"vertex": 5, "with": [[2, 3]]}],
                     "rest": [[1, 2], [3, 4]]},
            "rests_on": "Motzkin-Straus theorem",
        }

    def test_petersen_j4_agree_infeasible(self, tmp_path):
        path = tmp_path / "petersen.col"
        path.write_text(write_graph(corpus.petersen()))
        res = mpoly_cmd("pipeline", str(path), "4", "--json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["verdict"] == "AGREE"
        assert payload["truly_feasible"] is False
        assert payload["search"]["status"] == "INFEASIBLE"
        assert payload["search"]["budget_spent"] == 0
        tree = corpus.tree_from_json(payload["search"]["threshold_proof"]["tree"])
        assert is_threshold_proof(corpus.petersen(), tree, 4)

    def test_k3_j1_agree(self, workspace):
        res = mpoly_cmd("pipeline", str(workspace / "k3.col"), "1", "--json")
        assert res.returncode == 0
        assert json.loads(res.stdout)["verdict"] == "AGREE"

    def test_k3_j1_search_proof_round_trips_through_json(self, workspace):
        res = mpoly_cmd("pipeline", str(workspace / "k3.col"), "1", "--json")
        proof = json.loads(res.stdout)["search"]["threshold_proof"]
        assert proof["rests_on"] == "Cauchy-Schwarz"
        tree = corpus.tree_from_json(proof["tree"])
        assert is_threshold_proof(parse_graph(K3_TEXT), tree, 1)

    def test_identical_config_byte_identical_output(self, workspace):
        args = ("pipeline", str(workspace / "c5.col"), "1", "--json", "--seed", "5")
        assert mpoly_cmd(*args).stdout == mpoly_cmd(*args).stdout

    def test_run_pipeline_library_entry(self):
        report = run_pipeline(corpus.cycle(5), 1, budget=20_000, seed=0)
        assert report["verdict"] == "AGREE"
        assert report["exit_code"] == 0
        assert report["alpha"] == 2

    def test_k3_j1_certified_infeasible(self):
        report = run_pipeline(corpus.complete(3), 1)
        assert report["verdict"] == "AGREE"
        assert report["search"]["status"] == "INFEASIBLE"
        assert report["search"]["threshold_proof"] == {
            "tree": [[1, 2, 3]], "rests_on": "Cauchy-Schwarz"}

    def test_infeasible_on_feasible_instance_is_soundness_violation(self, monkeypatch):
        infeasible = SearchOutcome(SearchStatus.INFEASIBLE, None, 0)
        monkeypatch.setattr(
            mpoly.cli, "search_general", lambda mats, budget, seed: infeasible
        )
        report = run_pipeline(corpus.cycle(5), 1)
        assert report["truly_feasible"] is True
        assert report["verdict"] == "DISAGREE"
        assert report["exit_code"] == 70

    # C5 has alpha 2: three cliques prove only alpha <= 3, and {0, 1} is an edge
    @pytest.mark.parametrize("bad", [{"proof": ((0, 1), (2, 3), (4,))},
                                     {"witness": frozenset({0, 1})}],
                             ids=["proof", "witness"])
    def test_oracle_answer_that_fails_its_recheck_exits_70(self, workspace, monkeypatch,
                                                           capsys, bad):
        real = mpoly.cli.max_independent_set
        monkeypatch.setattr(mpoly.cli, "max_independent_set",
                            lambda g: dataclasses.replace(real(g), **bad))
        code = mpoly.cli.main(["pipeline", str(workspace / "c5.col"), "2", "--json"])
        assert code == 70
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "ORACLE_REFUTED" and report["exit_code"] == 70
        assert report["search"]["status"] == "INFEASIBLE"

    def test_twenty_vertex_graph_agrees(self, tmp_path):
        g = corpus.gnp(20, 0.35, 1)
        path = tmp_path / "g20.col"
        path.write_text(write_graph(g))
        alpha = max_independent_set(g).alpha
        for j, status in ((alpha - 1, "FEASIBLE"), (alpha, "INFEASIBLE")):
            res = mpoly_cmd("pipeline", str(path), str(j), "--json")
            assert res.returncode == 0
            payload = json.loads(res.stdout)
            assert payload["verdict"] == "AGREE"
            assert payload["search"]["status"] == status
            assert payload["search"]["budget_spent"] == 0

    def test_thirty_one_vertex_graph_agrees(self, tmp_path):
        g = corpus.gnp(31, 0.5, 3)
        path = tmp_path / "g31.col"
        path.write_text(write_graph(g))
        alpha = max_independent_set(g).alpha
        res = mpoly_cmd("pipeline", str(path), str(alpha), "--json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["verdict"] == "AGREE" and payload["alpha"] == alpha


# a Z-matrix family that is never a nonsingular M-matrix: the search
# reaches its seeded ascent, and the Hurwitz search its seeded descent
NOT_MMATRIX_FAMILY = "[" + NOT_MMATRIX_JSON.strip() + "]"
SEEDED_INPUTS = {
    "ms-solve": C5_TEXT,
    "hurwitz-search": NOT_MMATRIX_FAMILY,
    "radius-min": '[{"n":2,"entries":[[0.0,1.0],[1.0,0.0]],"exact":false}]',
    "search": NOT_MMATRIX_FAMILY,
}
# 10^400 has no finite float64 value, as an exact entry or as a JSON
# integer in a float matrix
BEYOND_FLOAT = ['{"n":2,"entries":[["1e400","-1"],["-1","2"]],"exact":true}',
                '{"n":2,"entries":[[1%s,-1],[-1,2]],"exact":false}' % ("0" * 400)]


class TestGlobalFlags:
    def test_usage_error_is_64(self):
        assert mpoly_cmd("no-such-command").returncode == 64
        assert mpoly_cmd().returncode == 64

    @pytest.mark.parametrize("command", sorted(SEEDED_INPUTS))
    def test_negative_seed_is_a_usage_error(self, tmp_path, command):
        path = tmp_path / "input"
        path.write_text(SEEDED_INPUTS[command])
        res = mpoly_cmd(command, str(path), "--seed", "-1")
        assert res.returncode == 64
        assert "--seed: must be a non-negative integer" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("command", [
        "certify", "certify --float", "search", "search --symmetric",
        "hurwitz-search", "radius-min",
    ])
    def test_entry_beyond_float64_is_an_input_error(self, tmp_path, command):
        for big in BEYOND_FLOAT:
            if command == "radius-min":  # it needs a nonnegative family
                big = big.replace("-1", "1")
            path = tmp_path / "big.json"
            path.write_text(big if command.startswith("certify") else f"[{big}]")
            res = mpoly_cmd(*command.split(), str(path))
            assert res.returncode == 65, big
            assert res.stderr.startswith("mpoly: ")
            assert res.stderr.count("\n") == 1
            assert "beyond the float64 range" in res.stderr

    @pytest.mark.parametrize("command, text, message", [
        ("certify", "[" * 100_000 + "]" * 100_000, "recursion"),
        ("certify", '{"n":1,"entries":[["1e5000"]],"exact":true}', "exponent"),
        ("certify", '{"n":1,"entries":[[1]],"exact":"no"}', '"exact"'),
        ("alpha", "p edge 100000000000000000000 0\n", "invalid sizes"),
    ], ids=["nested-past-the-recursion-limit", "string-exponent",
            "exact-not-a-boolean", "graph-past-sys-maxsize"])
    def test_malformed_input_is_an_input_error(self, tmp_path, command, text, message):
        path = tmp_path / "input"
        path.write_text(text)
        res = mpoly_cmd(*command.split(), str(path))
        assert res.returncode == 65
        assert res.stderr.startswith("mpoly: ") and res.stderr.count("\n") == 1
        assert message in res.stderr

    def test_main_runs_in_its_own_context(self, workspace, monkeypatch, capsys):
        # the command starts at the default tolerance whatever the caller
        # set, and its --tol setting ends when main returns
        monkeypatch.delenv("MPOLY_TOL", raising=False)
        seen = []
        real = mpoly.cli.certify
        monkeypatch.setattr(mpoly.cli, "certify",
                            lambda m: seen.append(mpoly.tolerance()) or real(m))
        good = str(workspace / "good.json")
        mpoly.set_tolerance(1e-3)
        assert mpoly.cli.main(["certify", good]) == 0
        assert mpoly.cli.main(["certify", good, "--tol", "1e-6"]) == 0
        assert seen == [mpoly.DEFAULT_TOLERANCE, 1e-6]
        assert mpoly.tolerance() == 1e-3

    def test_env_tolerance_applies(self, workspace):
        # a huge tolerance pushes every float margin into the MARGINAL band
        res = mpoly_cmd(
            "certify",
            str(workspace / "good.json"),
            "--float",
            env_extra={"MPOLY_TOL": "1000"},
        )
        assert res.returncode == 2

    def test_tol_flag_overrides_env(self, workspace):
        res = mpoly_cmd(
            "certify",
            str(workspace / "good.json"),
            "--float",
            "--tol",
            "1e-9",
            env_extra={"MPOLY_TOL": "1000"},
        )
        assert res.returncode == 0

    @pytest.mark.parametrize("flag, env", [
        (["--tol", "inf"], None), ([], {"MPOLY_TOL": "inf"}),
        (["--tol", "nan"], None), ([], {"MPOLY_TOL": "-inf"}),
    ])
    def test_tolerance_must_be_finite(self, workspace, flag, env):
        res = mpoly_cmd("certify", str(workspace / "good.json"), "--float", *flag,
                        env_extra=env)
        assert res.returncode == 64

    def test_bad_env_tolerance(self, workspace):
        res = mpoly_cmd(
            "certify",
            str(workspace / "good.json"),
            env_extra={"MPOLY_TOL": "banana"},
        )
        assert res.returncode == 64
