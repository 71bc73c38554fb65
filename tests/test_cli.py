"""Command-line front end: exit codes, JSON documents, reproducibility."""

import collections
import hashlib
import itertools
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from propcheck import (
    PUSH,
    Instance,
    RestrictDomain,
    arc_filter,
    bound_d_filter,
    bound_z_filter,
    range_filter,
)
from propcheck.cli import (
    EXIT_CAP,
    EXIT_COUNTEREXAMPLE,
    EXIT_NO_REPRODUCE,
    EXIT_PASS,
    EXIT_USAGE,
    branch_op_from_doc,
    branch_op_to_doc,
    instance_from_doc,
    instance_to_doc,
    main,
    outcome_from_doc,
    outcome_to_doc,
    parse_recipe,
)
from propcheck import checkers, cli, minisolver, reference, stateful
from propcheck.domains import INCONSISTENT, Filtered
from propcheck.minisolver import RECIPES, BugId


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


class TestRun:
    def test_self_check_passes(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "run", "--mode", "check",
            "--trusted", "arc:alldiff", "--tested", "arc:alldiff",
            "--vars", "3", "--tests", "20", "--seed", "5",
        )
        assert code == EXIT_PASS
        assert doc["passed"] is True
        assert doc["testsRun"] == 20
        assert doc["seed"] == "5"
        assert doc["counterexample"] is None

    def test_solver_ac_equals_arc_reference(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "run", "--mode", "check",
            "--trusted", "arc:alldiff", "--tested", "alldiff-ac",
            "--vars", "3", "--tests", "30",
        )
        assert code == EXIT_PASS and doc["passed"]

    def test_seeded_bug_caught_with_counterexample(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "run", "--mode", "check",
            "--trusted", "boundz:sum=0",
            "--tested", "sum-bc+bug:SUM_REVERSED_BOUND",
            "--vars", "3", "--tests", "100",
        )
        assert code == EXIT_COUNTEREXAMPLE
        ce = doc["counterexample"]
        assert ce is not None
        assert ce["shrunkMinimal"] is True
        assert {"trusted", "tested", "reason", "original", "shrunk"} <= set(ce)

    def test_stronger_mode_hierarchy(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "run", "--mode", "stronger",
            "--trusted", "boundz:sum=2", "--tested", "arc:sum=2",
            "--vars", "3", "--tests", "30",
        )
        assert code == EXIT_PASS and doc["passed"]

    def test_byte_identical_stdout_for_same_seed(self, capsys):
        argv = (
            "run", "--mode", "check",
            "--trusted", "boundz:sum=0",
            "--tested", "sum-bc+bug:SUM_REVERSED_BOUND",
            "--vars", "3", "--tests", "50", "--seed", "123",
        )
        _, out_a, _ = run_cli(capsys, *argv)
        _, out_b, _ = run_cli(capsys, *argv)
        assert out_a == out_b

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("PROPCHECK_SEED", "77")
        _, doc, _ = run_json(
            capsys,
            "run", "--mode", "check",
            "--trusted", "arc:alldiff", "--tested", "arc:alldiff",
            "--vars", "2", "--tests", "5",
        )
        assert doc["seed"] == "77"

    def test_flag_seed_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PROPCHECK_SEED", "77")
        _, doc, _ = run_json(
            capsys,
            "run", "--mode", "check",
            "--trusted", "arc:alldiff", "--tested", "arc:alldiff",
            "--vars", "2", "--tests", "5", "--seed", "3",
        )
        assert doc["seed"] == "3"

    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "--mode", "check", "--trusted", "arc:alldiff"),  # missing tested
            ("run", "--mode", "bogus", "--trusted", "arc:alldiff", "--tested", "arc:alldiff"),
            ("run", "--mode", "check", "--trusted", "nope:alldiff", "--tested", "arc:alldiff"),
            ("run", "--mode", "check", "--trusted", "arc:alldiff", "--tested", "no-such-recipe"),
            ("run", "--mode", "check", "--trusted", "arc:alldiff",
             "--tested", "alldiff-fc+bug:NO_SUCH_BUG"),
            ("run", "--mode", "check", "--trusted", "arc:alldiff",
             "--tested", "sum-bc"),  # sum-bc needs a sum=<c> trusted checker
            ("run", "--mode", "check", "--trusted", "arc:alldiff",
             "--tested", "arc:alldiff", "--vars", "0"),
            ("run", "--mode", "check", "--trusted", "arc:alldiff", "--tested", "alldiff-ac",
             "--vars", "2", "--min", "2147483648", "--max", "2147483648"),
            ("run", "--mode", "check", "--trusted", "arc:alldiff", "--tested", "alldiff-ac",
             "--vars", "2", "--min", "-2147483649", "--max", "-2147483649"),
            ("run", "--mode", "check", "--trusted", "boundz:sum=0",
             "--tested", "sum-bc+bug:"),  # an empty bug id
        ],
    )
    def test_usage_errors(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""  # nothing but JSON ever goes to stdout

    @pytest.mark.parametrize(
        "mode,trusted,tested",
        [
            ("check", "arc:sum=0", "alldiff-ac"),
            ("check", "boundz:sum=0", "boundz:sum=1"),
            ("stronger", "boundz:alldiff", "boundd:sum=0"),
        ],
    )
    def test_different_checkers_are_a_usage_error(self, capsys, mode, trusted, tested):
        code, out, err = run_cli(
            capsys, "run", "--mode", mode, "--trusted", trusted, "--tested", tested, "--seed", "0"
        )
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("side", ["--trusted", "--tested"])
    def test_bug_after_a_reference_names_the_recipes(self, capsys, side):
        specs = {"--trusted": "arc:alldiff", "--tested": "arc:alldiff"}
        specs[side] = "arc:alldiff+bug:TRAIL_NO_RESTORE"
        code, out, err = run_cli(
            capsys, "run", "--mode", "check", *itertools.chain(*specs.items()), "--seed", "0"
        )
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "+bug: applies only to a recipe" in err
        assert all(name in err for name in RECIPES)

    def test_checkers_are_compared_parsed(self, capsys):
        code, _, _ = run_cli(
            capsys, "run", "--mode", "check", "--trusted", "boundz:sum=0",
            "--tested", "boundz:sum=00", "--tests", "5",
        )
        assert code == EXIT_PASS

    def test_value_range_past_the_draw_bound(self, capsys):
        # 5 variables over the whole int32 range would take 5 * 2**32 draws
        # per instance; the bound is 1,000,000.
        code, out, err = run_cli(
            capsys,
            "run", "--mode", "check", "--trusted", "arc:alldiff", "--tested", "alldiff-ac",
            "--min", "-2147483648", "--max", "2147483647",
        )
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "1,000,000" in err

    def test_instance_past_the_cap_is_tested_when_each_search_fits(self, capsys):
        # The domain product is about 21**5 = 4.1 M, past the default cap of
        # 1,000,000, but each support search spans at most 21**4 tuples.
        code, doc, _ = run_json(
            capsys,
            "run", "--mode", "check",
            "--trusted", "boundz:alldiff", "--tested", "boundz:alldiff",
            "--vars", "5", "--min", "-10", "--max", "10",
            "--density", "0.99", "--tests", "3",
        )
        assert code == EXIT_PASS
        assert doc["testsRun"] == 3
        assert doc["redraws"] == 0

    def test_cap_exceeded_exit_code(self, capsys):
        code, out, err = run_cli(
            capsys,
            "run", "--mode", "check",
            "--trusted", "arc:alldiff", "--tested", "arc:alldiff",
            "--vars", "9", "--min", "-30", "--max", "30",
            "--density", "0.99", "--tests", "5",
        )
        assert code == EXIT_CAP
        assert out == ""
        assert "limit" in err


class TestDive:
    def test_self_dive_passes(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "dive", "--trusted", "arc:alldiff", "--tested", "alldiff-ac",
            "--vars", "3", "--dives", "10", "--seed", "2",
        )
        assert code == EXIT_PASS and doc["passed"]
        assert doc["mode"] == "dives"

    def test_trail_bug_caught_with_transcript(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "dive", "--trusted", "boundz:sum=0",
            "--tested", "sum-bc+bug:TRAIL_NO_RESTORE",
            "--vars", "3", "--dives", "20", "--seed", "0",
        )
        assert code == EXIT_COUNTEREXAMPLE
        transcript = doc["counterexample"]["transcript"]
        assert transcript
        assert all(t["op"] in ("push", "pop", "restrict") for t in transcript)

    @pytest.mark.parametrize(
        "extra",
        [
            ("--dives", "0"),
            ("--max-depth", "0"),
            ("--min", "2147483648", "--max", "2147483648"),
            ("--min", "-2147483649", "--max", "-2147483649"),
            ("--min", "0", "--max", "500000"),  # 2 * 500,001 draws per instance
        ],
    )
    def test_dive_flag_validation(self, capsys, extra):
        code, out, err = run_cli(
            capsys,
            "dive", "--trusted", "arc:alldiff", "--tested", "alldiff-ac",
            "--vars", "2", *extra,
        )
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_different_checkers_are_a_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "dive", "--trusted", "arc:sum=0", "--tested", "alldiff-fc", "--seed", "0"
        )
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestOracle:
    def run_oracle(self, capsys, monkeypatch, payload, *argv):
        import io, sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
        return run_cli(capsys, "oracle", *argv)

    def test_filters_instance(self, capsys, monkeypatch):
        code, out, _ = self.run_oracle(
            capsys, monkeypatch,
            json.dumps({"domains": [[1, 2], [1, 2], [1, 2, 3]]}),
            "--level", "arc", "--checker", "alldiff",
        )
        assert code == EXIT_PASS
        assert json.loads(out) == {"status": "filtered", "domains": [[1, 2], [1, 2], [3]]}

    def test_inconsistent_instance(self, capsys, monkeypatch):
        code, out, _ = self.run_oracle(
            capsys, monkeypatch,
            json.dumps({"domains": [[1, 9], [1, 9], [1, 9]]}),
            "--level", "arc", "--checker", "sum=15",
        )
        assert code == EXIT_PASS
        assert json.loads(out) == {"status": "inconsistent"}

    def test_empty_domain_with_allow_empty(self, capsys, monkeypatch):
        code, out, _ = self.run_oracle(
            capsys, monkeypatch,
            json.dumps({"domains": [[1], []], "allowEmpty": True}),
            "--level", "boundz", "--checker", "alldiff",
        )
        assert code == EXIT_PASS
        assert json.loads(out) == {"status": "inconsistent"}

    @pytest.mark.parametrize(
        "payload",
        [
            "not json",
            json.dumps({"domains": []}),
            json.dumps({"domains": [[1], []]}),  # empty without allowEmpty
            json.dumps({"domains": [[2**31]]}),  # out of 32-bit range
            json.dumps({"nope": 1}),
            json.dumps({"domains": [[True, False], [1]]}),  # booleans are not integers
            json.dumps({"domains": [[1.5], [1]]}),  # not an integer
            json.dumps({"domains": [[1], []], "allowEmpty": "false"}),  # not a boolean
        ],
    )
    def test_bad_payload_is_usage_error(self, capsys, monkeypatch, payload):
        code, out, _ = self.run_oracle(
            capsys, monkeypatch, payload, "--level", "arc", "--checker", "alldiff"
        )
        assert code == EXIT_USAGE and out == ""

    def test_unknown_level(self, capsys, monkeypatch):
        code, _, _ = self.run_oracle(
            capsys, monkeypatch,
            json.dumps({"domains": [[1]]}),
            "--level", "nope", "--checker", "alldiff",
        )
        assert code == EXIT_USAGE

    def test_empty_domain_does_not_skip_validation(self, capsys, monkeypatch):
        code, out, _ = self.run_oracle(
            capsys, monkeypatch,
            json.dumps({"domains": [[1], []], "allowEmpty": True}),
            "--level", "nope", "--checker", "bogus",
        )
        assert code == EXIT_USAGE and out == ""

    @pytest.mark.parametrize(
        "level,checker",
        [("alldiff-fc+bug", "SKIP_LAST"), ("alldiff-fc+bug", "ALLDIFF_FC_SKIP_LAST"),
         ("arc", "alldiff+bug:X")],
    )
    def test_level_and_checker_are_parsed_apart(self, capsys, monkeypatch, level, checker):
        # Joined as `<level>:<checker>`, the second pair would name a recipe,
        # which has no level function.
        code, out, err = self.run_oracle(
            capsys, monkeypatch, json.dumps({"domains": [[1]]}),
            "--level", level, "--checker", checker,
        )
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("level", ["arc", "boundz", "boundd", "range"])
    def test_cap_exceeded_exit_code(self, capsys, monkeypatch, level):
        # Each support search spans 1001**2 tuples, past the default cap of
        # 1,000,000, so every level raises before enumerating anything.
        code, out, err = self.run_oracle(
            capsys, monkeypatch,
            json.dumps({"domains": [list(range(1001))] * 3}),
            "--level", level, "--checker", "alldiff",
        )
        assert code == EXIT_CAP
        assert out == ""
        assert "limit" in err


class TestReplay:
    def capture_failing_report(self, capsys, tmp_path, *argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_COUNTEREXAMPLE
        path = tmp_path / "report.json"
        path.write_text(out)
        return path

    def test_replays_static_counterexample(self, capsys, tmp_path):
        path = self.capture_failing_report(
            capsys, tmp_path,
            "run", "--mode", "check",
            "--trusted", "boundz:sum=0",
            "--tested", "sum-bc+bug:SUM_REVERSED_BOUND",
            "--vars", "3", "--tests", "100",
        )
        code, _, _ = run_cli(capsys, "replay", "--report", str(path))
        assert code == EXIT_COUNTEREXAMPLE

    def test_replays_dive_counterexample(self, capsys, tmp_path):
        path = self.capture_failing_report(
            capsys, tmp_path,
            "dive", "--trusted", "boundz:sum=0",
            "--tested", "sum-bc+bug:TRAIL_NO_RESTORE",
            "--vars", "3", "--dives", "20", "--seed", "0",
        )
        code, _, _ = run_cli(capsys, "replay", "--report", str(path))
        assert code == EXIT_COUNTEREXAMPLE

    def test_fixed_code_no_longer_reproduces(self, capsys, tmp_path):
        path = self.capture_failing_report(
            capsys, tmp_path,
            "run", "--mode", "check",
            "--trusted", "boundz:sum=0",
            "--tested", "sum-bc+bug:SUM_REVERSED_BOUND",
            "--vars", "3", "--tests", "100",
        )
        doc = json.loads(path.read_text())
        doc["tested"] = "sum-bc"  # as if the bug had been fixed
        path.write_text(json.dumps(doc))
        code, _, _ = run_cli(capsys, "replay", "--report", str(path))
        assert code == EXIT_NO_REPRODUCE

    @pytest.mark.parametrize("tested", ["alldiff-ac", "boundz:sum=1"])
    def test_report_over_different_checkers_is_usage_error(self, capsys, tmp_path, tested):
        path = self.capture_failing_report(
            capsys, tmp_path,
            "run", "--mode", "check",
            "--trusted", "boundz:sum=0",
            "--tested", "sum-bc+bug:SUM_REVERSED_BOUND",
            "--vars", "3", "--tests", "100",
        )
        doc = json.loads(path.read_text())
        doc["tested"] = tested
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "replay", "--report", str(path))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_passing_report_is_usage_error(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "run", "--mode", "check",
            "--trusted", "arc:alldiff", "--tested", "arc:alldiff",
            "--vars", "2", "--tests", "5",
        )
        assert code == EXIT_PASS
        path = tmp_path / "passing.json"
        path.write_text(out)
        code, _, _ = run_cli(capsys, "replay", "--report", str(path))
        assert code == EXIT_USAGE

    def test_missing_report_file(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "replay", "--report", str(tmp_path / "nope.json"))
        assert code == EXIT_USAGE

    STATIC = (
        "run", "--mode", "check",
        "--trusted", "boundz:sum=0", "--tested", "sum-bc+bug:SUM_REVERSED_BOUND",
        "--vars", "3", "--tests", "100",
    )
    DIVE = (
        "dive", "--trusted", "boundz:sum=0", "--tested", "sum-bc+bug:TRAIL_NO_RESTORE",
        "--vars", "3", "--dives", "20", "--seed", "0",
    )

    def replay_tampered(self, capsys, tmp_path, argv, tamper):
        path = self.capture_failing_report(capsys, tmp_path, *argv)
        path.write_text(json.dumps(tamper(json.loads(path.read_text()))))
        return run_cli(capsys, "replay", "--report", str(path))

    @staticmethod
    def with_ce(doc, **fields):
        return {**doc, "counterexample": {**doc["counterexample"], **fields}}

    @pytest.mark.parametrize(
        "argv,tamper",
        [
            pytest.param(
                STATIC, lambda d: {k: v for k, v in d.items() if k != "config"},
                id="no-config",
            ),
            pytest.param(STATIC, lambda d: [d], id="top-level-list"),
            pytest.param(
                DIVE, lambda d: TestReplay.with_ce(d, transcript={"op": "push"}),
                id="transcript-object",
            ),
            pytest.param(
                DIVE,
                lambda d: TestReplay.with_ce(d, transcript=[
                    {**op, "relation": "~"} if op["op"] == "restrict" else op
                    for op in d["counterexample"]["transcript"]
                ]),
                id="unknown-relation",
            ),
            pytest.param(
                STATIC, lambda d: {**d, "config": {**d["config"], "vars": "3"}},
                id="vars-string",
            ),
        ],
    )
    def test_malformed_report_is_usage_error(self, capsys, tmp_path, argv, tamper):
        code, out, err = self.replay_tampered(capsys, tmp_path, argv, tamper)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,tamper,what",
        [
            pytest.param(
                STATIC,
                lambda d: TestReplay.with_ce(
                    d, tested={"status": "filtered", "domains": [[9], [9], [9]]}
                ),
                "tested outcome",
                id="static-tested-outcome",
            ),
            pytest.param(
                DIVE,
                lambda d: TestReplay.with_ce(
                    d, transcript=d["counterexample"]["transcript"] + [{"op": "push"}]
                ),
                "already differ",
                id="dive-ops-after-the-disagreement",
            ),
            pytest.param(
                DIVE,
                lambda d: TestReplay.with_ce(d, reason="outcomes differ after setup"),
                "reason",
                id="dive-reason",
            ),
        ],
    )
    def test_other_disagreement_does_not_reproduce(self, capsys, tmp_path, argv, tamper, what):
        code, out, err = self.replay_tampered(capsys, tmp_path, argv, tamper)
        assert code == EXIT_NO_REPRODUCE
        assert out == ""
        assert err.startswith("not reproduced: ") and err.count("\n") == 1
        assert what in err

    @pytest.mark.parametrize("argv", [STATIC, DIVE], ids=["static", "dive"])
    def test_reproduced_report_prints_nothing(self, capsys, tmp_path, argv):
        code, out, err = self.replay_tampered(capsys, tmp_path, argv, lambda d: d)
        assert (code, out, err) == (EXIT_COUNTEREXAMPLE, "", "")


def replay_of(tamper):
    """A case that replays a failing static report of arity 5 rewritten by
    `tamper`, which returns the new document or the file's raw text."""

    def argv(capsys, tmp_path, monkeypatch):
        code, out, _ = run_cli(
            capsys,
            "run", "--mode", "check", "--trusted", "boundz:sum=0",
            "--tested", "sum-bc+bug:SUM_REVERSED_BOUND", "--seed", "1",
        )
        assert code == EXIT_COUNTEREXAMPLE
        doc = tamper(json.loads(out))
        path = tmp_path / "report.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        return "replay", "--report", str(path)

    return argv


def oracle_on_a_domain_that_is_not_a_list(capsys, tmp_path, monkeypatch):
    import io, sys

    monkeypatch.setattr(sys, "stdin", io.StringIO('{"domains": [1, [2]]}'))
    return "oracle", "--level", "arc", "--checker", "alldiff"


def run_with_a_seed_that_is_not_an_integer(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("PROPCHECK_SEED", "abc")
    return "run", "--mode", "check", "--trusted", "boundz:sum=0", "--tested", "sum-bc"


class TestUsageDefects:
    """Defects in a report, on stdin or in the environment: each exits 2
    with one stderr line, pinned here by its start."""

    @pytest.mark.parametrize(
        "case,prefix",
        [
            pytest.param(
                replay_of(lambda d: "{"),
                "error: report is not valid JSON: ",
                id="replay-not-json",
            ),
            pytest.param(
                replay_of(lambda d: {**d, "mode": "bogus"}),
                "error: unknown report mode 'bogus'",
                id="replay-unknown-mode",
            ),
            pytest.param(
                replay_of(lambda d: {**d, "config": {**d["config"], "vars": 0}}),
                "error: report field 'vars' must be >= 1",
                id="replay-vars-below-1",
            ),
            pytest.param(
                replay_of(lambda d: TestReplay.with_ce(d, trusted={"status": "maybe"})),
                'error: an outcome must have "status": "inconsistent" or "filtered"',
                id="replay-unknown-status",
            ),
            pytest.param(
                replay_of(
                    lambda d: TestReplay.with_ce({**d, "mode": "dives"}, transcript=[{"op": "x"}])
                ),
                "error: unknown branch op 'x' in transcript",
                id="replay-unknown-op",
            ),
            pytest.param(
                replay_of(lambda d: TestReplay.with_ce(d, shrunk={"domains": [0, 0, 0, 0, 0]})),
                "error: each domain must be a list of integers",
                id="replay-domain-not-a-list",
            ),
            pytest.param(
                oracle_on_a_domain_that_is_not_a_list,
                "error: each domain must be a list of integers",
                id="oracle-domain-not-a-list",
            ),
            pytest.param(
                replay_of(lambda d: {**d, "config": {**d["config"], "vars": 4}}),
                "contract violation: checker arity 4 != instance arity 5",
                id="replay-vars-not-the-shrunk-arity",
            ),
            pytest.param(
                run_with_a_seed_that_is_not_an_integer,
                "error: PROPCHECK_SEED is not an integer: 'abc'",
                id="run-env-seed",
            ),
        ],
    )
    def test_exit_code_and_message(self, capsys, tmp_path, monkeypatch, case, prefix):
        code, out, err = run_cli(capsys, *case(capsys, tmp_path, monkeypatch))
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith(prefix) and err.count("\n") == 1


class TestTrustedRecipe:
    """Either side takes a recipe; a sum recipe has no total to give."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "--mode", "check", "--tested", "alldiff-fc+bug:ALLDIFF_FC_SKIP_LAST"),
            ("dive", "--tested", "alldiff-fc+bug:TRAIL_NO_RESTORE"),
        ],
        ids=["run", "dive"],
    )
    def test_a_bug_is_caught_and_replayed(self, capsys, tmp_path, argv):
        code, out, _ = run_cli(capsys, *argv, "--trusted", "alldiff-fc", "--seed", "1")
        assert code == EXIT_COUNTEREXAMPLE
        assert json.loads(out)["trusted"] == "alldiff-fc"
        path = tmp_path / "report.json"
        path.write_text(out)
        assert run_cli(capsys, "replay", "--report", str(path)) == (EXIT_COUNTEREXAMPLE, "", "")

    @pytest.mark.parametrize("tested", ["sum-bc", "boundz:sum=0"])
    @pytest.mark.parametrize("command", [("run", "--mode", "check"), ("dive",)], ids=["run", "dive"])
    def test_a_trusted_sum_recipe_is_a_usage_error(self, capsys, command, tested):
        code, out, err = run_cli(capsys, *command, "--trusted", "sum-bc", "--tested", tested)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_helpers_reject_a_sum_recipe_without_a_total(self):
        with pytest.raises(cli.UsageError):
            cli.parse_reference_spec("sum-bc", 5)
        with pytest.raises(cli.UsageError):
            cli.parse_tested_filter("sum-bc", "sum-bc", 5)


class TestRecipeRegistry:
    TRUSTED = {"alldiff": "arc:alldiff", "sum": "boundz:sum=0"}  # a spec over each checker

    @pytest.mark.parametrize(
        "name,bug",
        [
            pytest.param(name, bug, id=f"{name}+{bug.value}")
            for name in RECIPES
            for bug in BugId
            if bug is not BugId.NONE
        ],
    )
    def test_bug_compatibility_follows_the_registry(self, capsys, name, bug):
        spec = f"{name}+bug:{bug.value}"
        trusted = self.TRUSTED[RECIPES[name].checker]
        if bug in RECIPES[name].bugs:
            recipe = parse_recipe(spec, trusted)
            assert (recipe.kind, recipe.bug) == (name, bug)
            return
        code, out, err = run_cli(
            capsys,
            "run", "--mode", "check", "--trusted", trusted, "--tested", spec, "--vars", "3",
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ")
        assert all(accepted.value in err for accepted in RECIPES[name].bugs)

    @pytest.mark.parametrize("name", RECIPES)
    def test_a_recipe_over_another_checker_is_a_usage_error(self, name):
        other = next(t for kind, t in self.TRUSTED.items() if kind != RECIPES[name].checker)
        bug = RECIPES[name].bugs[0].value
        for spec in (name, f"{name}+bug:{bug}"):
            with pytest.raises(cli.UsageError, match="another checker"):
                parse_recipe(spec, other)

    def test_an_empty_trusted_spec_means_the_recipe_s_own_checker(self):
        assert parse_recipe("alldiff-fc", "") == parse_recipe("alldiff-fc", "arc:alldiff")
        with pytest.raises(cli.UsageError, match="no sum total"):
            parse_recipe("sum-bc", "")
        with pytest.raises(cli.UsageError, match="names a reference, not a recipe"):
            parse_recipe("arc:alldiff", "")

    def test_readme_table_matches_the_registry(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        for name, kind in RECIPES.items():
            bugs = ", ".join(f"`{b.value}`" for b in kind.bugs)
            row = f"| `{name}` | `{kind.propagator.__name__}` | `{kind.checker}` | {bugs} |"
            assert row in readme.splitlines()


class TestSharedParser:
    """`main` parses with one parser per process; no call sees the calls before it."""

    RUN = (
        "run", "--mode", "check", "--trusted", "boundz:sum=0", "--tested", "sum-bc",
        "--vars", "3", "--tests", "20", "--seed", "4",
    )

    def test_usage_error_does_not_change_the_next_call(self, capsys):
        cli._shared_parser.cache_clear()
        first = run_cli(capsys, *self.RUN)
        assert first[0] == EXIT_PASS
        assert run_cli(capsys, "run", "--mode", "bogus")[0] == EXIT_USAGE
        assert run_cli(capsys, *self.RUN)[:2] == first[:2]

    def test_seed_from_the_environment_is_read_on_each_call(self, capsys, monkeypatch):
        seeds = []
        for env in ("11", "12"):
            monkeypatch.setenv("PROPCHECK_SEED", env)
            seeds.append(run_json(capsys, *self.RUN[:-2])[1]["seed"])
        assert seeds == ["11", "12"]

    def test_handler_replaced_after_the_first_call_runs(self, capsys, monkeypatch):
        # bench/tracing.py wraps the subcommand handlers by name.
        assert run_cli(capsys, *self.RUN)[0] == EXIT_PASS
        seen = []

        def fake_run(args):
            seen.append(args.seed)
            return 7

        monkeypatch.setattr(cli, "cmd_run", fake_run)
        assert run_cli(capsys, *self.RUN)[0] == 7
        assert seen == [4]

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()


class TestCheckersPerCommand:
    """Each command parses a checker spec once and builds one checker for both
    sides. The bundled factories share that checker, and its memo, across
    commands; these tests wrap the factory, so each command here gets a new
    counted checker."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """Checkers made by `checkers.sum_equals`, and their predicate calls."""
        made, calls = [], [0]
        sum_equals = checkers.sum_equals

        def counted_sum_equals(total, arity):
            checker = sum_equals(total, arity)

            def predicate(a):
                calls[0] += 1
                return checker.predicate(a)

            made.append(checkers.Checker(arity, predicate, checker.name))
            return made[-1]

        monkeypatch.setattr(checkers, "sum_equals", counted_sum_equals)
        return made, calls

    @pytest.mark.parametrize(
        "level,func",
        [("arc", arc_filter), ("boundz", bound_z_filter), ("boundd", bound_d_filter),
         ("range", range_filter)],
        ids=["arc", "boundz", "boundd", "range"],
    )
    def test_oracle_calls_the_predicate_as_the_level_function_does(
        self, capsys, monkeypatch, counted, level, func
    ):
        # A table over this one instance would take 10**6 predicate calls;
        # the level function's support searches take far fewer.
        import io, sys

        made, calls = counted
        domains = [list(range(10))] * 6
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"domains": domains})))
        code, out, _ = run_cli(capsys, "oracle", "--level", level, "--checker", "sum=27")
        assert code == EXIT_PASS
        oracle_calls, calls[0] = calls[0], 0
        expected = func(checkers.sum_equals(27, 6), Instance.of(domains))
        assert json.loads(out) == outcome_to_doc(expected)
        assert oracle_calls == calls[0] < 10**4

    def test_same_command_twice_makes_the_same_calls(self, capsys, counted):
        made, calls = counted
        argv = (
            "run", "--mode", "stronger", "--trusted", "boundz:sum=6",
            "--tested", "boundd:sum=6", "--seed", "3",
        )
        runs = []
        for _ in range(2):
            calls[0] = 0
            code, out, _ = run_cli(capsys, *argv)
            runs.append((code, out, calls[0]))
        assert runs[0] == runs[1]
        assert runs[0][0] == EXIT_PASS and runs[0][2] > 0
        assert len(made) == 2  # one checker per command, shared by both sides

    @pytest.mark.parametrize(
        "argv",
        [
            ("dive", "--trusted", "boundz:sum=0", "--tested", "range:sum=0", "--dives", "3"),
            ("run", "--mode", "check", "--trusted", "boundz:sum=0", "--tested", "sum-bc"),
            ("run", "--mode", "stronger", "--trusted", "boundz:sum=0", "--tested", "boundd:sum=00"),
        ],
        ids=["dive", "recipe", "spelling"],
    )
    def test_one_checker_per_command(self, capsys, counted, argv):
        made, _ = counted
        assert run_cli(capsys, *argv, "--seed", "2")[0] == EXIT_PASS
        assert len(made) == 1

    def test_replay_parses_each_spec_once(self, capsys, tmp_path, counted):
        made, _ = counted
        code, out, _ = run_cli(
            capsys, "run", "--mode", "stronger", "--trusted", "arc:sum=0",
            "--tested", "boundz:sum=0", "--vars", "3", "--seed", "1",
        )
        assert code == EXIT_COUNTEREXAMPLE and len(made) == 1
        path = tmp_path / "report.json"
        path.write_text(out)
        assert run_cli(capsys, "replay", "--report", str(path))[0] == EXIT_COUNTEREXAMPLE
        assert len(made) == 2


class TestSharedChecker:
    """The bundled checkers, and so their memos, outlive the command."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "--mode", "check", "--trusted", "boundz:sum=0", "--tested", "sum-bc"),
            ("dive", "--trusted", "arc:alldiff", "--tested", "alldiff-ac", "--dives", "5"),
        ],
        ids=["run", "dive"],
    )
    def test_the_same_command_again_grows_no_table(self, capsys, argv):
        checker = checkers.sum_equals(0, 5) if "sum-bc" in argv else checkers.all_different(5)
        code, out, _ = run_cli(capsys, *argv, "--seed", "4")
        memo = reference._memos[checker]
        grown = memo.count, [sorted(b) for b in memo.bits]
        assert code == EXIT_PASS and memo.count > 0
        assert run_cli(capsys, *argv, "--seed", "4")[:2] == (code, out)
        assert (memo.count, [sorted(b) for b in memo.bits]) == grown


class TestSharedOutcomes:
    """Within one command, a reference side's subjects share one bounded memo
    of the filter's outcomes; a recipe side gets a fresh solver each time."""

    DIVE = (
        "dive", "--trusted", "arc:alldiff", "--tested", "alldiff-ac+bug:TRAIL_NO_RESTORE",
        "--seed", "3",
    )
    # The stdout of DIVE, the same as without the memo, with which its dives
    # and their shrinking filtered these 54 distinct instances 203 times.
    STDOUT = "c8ca0e101aedfaa7f2b27b8d9bef39b2df3059a02fc8f00271a0e8fc8cf90972"

    @pytest.fixture
    def applied(self, monkeypatch):
        """How often each instance is filtered by the reference filters made
        from here on."""
        calls = collections.Counter()
        make_reference = reference.make_reference

        def counted(level, checker, *args, **kwargs):
            f = make_reference(level, checker, *args, **kwargs)

            def apply(inst):
                calls[inst] += 1
                return f.apply(inst)

            return f._replace(apply=apply)

        monkeypatch.setattr(reference, "make_reference", counted)
        return calls

    def test_a_dive_command_filters_each_instance_once(self, capsys, applied):
        code, out, _ = run_cli(capsys, *self.DIVE)
        assert code == EXIT_COUNTEREXAMPLE
        assert hashlib.sha256(out.encode()).hexdigest() == self.STDOUT
        assert len(applied) == 54 and set(applied.values()) == {1}

    def test_two_commands_share_no_memo(self, capsys, applied):
        runs = []
        for _ in range(2):
            applied.clear()
            runs.append((run_cli(capsys, *self.DIVE), dict(applied)))
        assert runs[0] == runs[1]
        assert len(runs[1][1]) == 54 and set(runs[1][1].values()) == {1}

    def test_a_recipe_side_gets_a_fresh_solver_every_evaluation(self, capsys, monkeypatch):
        trusted, solvers = [], [0]
        dives, first_run = stateful.dives, minisolver._first_run

        def recorded(root, trusted_subject, *args):
            trusted.append((root, trusted_subject))
            return dives(root, trusted_subject, *args)

        def counted(*args):
            solvers[0] += 1
            return first_run(*args)

        monkeypatch.setattr(stateful, "dives", recorded)
        monkeypatch.setattr(minisolver, "_first_run", counted)
        code, _, _ = run_cli(
            capsys,
            "dive", "--trusted", "alldiff-fc", "--tested", "alldiff-fc+bug:TRAIL_NO_RESTORE",
            "--seed", "1",
        )
        roots = collections.Counter(root for root, _ in trusted)
        assert code == EXIT_COUNTEREXAMPLE and max(roots.values()) > 1
        assert len({id(subject) for _, subject in trusted}) == len(trusted)
        assert solvers[0] == 2 * len(trusted)  # one setup on each side per evaluation

    @pytest.mark.parametrize(
        "argv,memos",
        [
            (("run", "--mode", "check", "--trusted", "arc:alldiff", "--tested", "arc:alldiff"), 2),
            (("dive", "--trusted", "arc:alldiff", "--tested", "alldiff-ac"), 1),
            (("dive", "--trusted", "arc:alldiff", "--tested", "arc:alldiff"), 2),
            (("dive", "--trusted", "alldiff-fc", "--tested", "alldiff-fc"), 0),
        ],
        ids=["run", "dive", "dive-two-references", "dive-two-recipes"],
    )
    def test_a_memo_is_built_for_each_reference_side_that_dives(
        self, capsys, monkeypatch, argv, memos
    ):
        # One memo per reference side of every command, built with the
        # side's factory, and none for a recipe.
        built = []
        lru_cache, partial = stateful.functools.lru_cache, stateful.functools.partial

        def counted(maxsize):
            built.append(maxsize)
            return lru_cache(maxsize)

        fake = SimpleNamespace(lru_cache=counted, partial=partial)
        monkeypatch.setattr(stateful, "functools", fake)
        code, _, _ = run_cli(capsys, *argv, "--vars", "3", "--seed", "2")
        assert code == EXIT_PASS
        assert built == [stateful.SHARED_OUTCOMES] * memos


class TestDocuments:
    def test_instance_round_trip(self):
        inst = Instance.of([[1, 2], [-3, 0]])
        assert instance_from_doc(instance_to_doc(inst)) == inst

    def test_outcome_round_trip(self):
        out = Filtered(Instance.of([[1], [2, 3]]))
        assert outcome_from_doc(outcome_to_doc(out)) == out
        assert outcome_from_doc(outcome_to_doc(INCONSISTENT)) is INCONSISTENT

    def test_branch_op_round_trip(self):
        for op in (PUSH, RestrictDomain(1, "<", 4)):
            assert branch_op_from_doc(branch_op_to_doc(op)) == op

    def test_seed_serialized_as_decimal_string(self, capsys):
        big = str(2**63 + 11)
        _, doc, _ = run_json(
            capsys,
            "run", "--mode", "check",
            "--trusted", "arc:alldiff", "--tested", "arc:alldiff",
            "--vars", "2", "--tests", "5", "--seed", big,
        )
        assert doc["seed"] == big


class TestSpecGrid:
    """The exit code and stdout of every subject-spec pair, valid or not."""

    TRUSTED = (
        "arc:alldiff", "boundz:sum=0", "boundd:sum=00", "range:sum=1", "arc:sum=x", "sum-bc",
        "alldiff-fc", "bogus:sum=0", "arc:foo", "arc:alldiff+bug:TRAIL_NO_RESTORE", "boundz:",
        ":sum=0", "",
    )
    TESTED = TRUSTED + (
        "alldiff-ac", "alldiff-fc+bug:SKIP_LAST", "sum-bc+bug:SUM_REVERSED_BOUND",
        "sum-bc+bug:TRAIL_NO_RESTORE", "alldiff-ac+bug:SUM_REVERSED_BOUND", "sum-bc+bug:",
        "sum-bc+bug:NONE", "alldiff-xx", "boundz:sum=0+bug:X",
    )
    COMMANDS = (
        ("run", "--mode", "check", "--tests", "5"),
        ("run", "--mode", "stronger", "--tests", "5"),
        ("dive", "--dives", "3"),
    )
    # 858 commands: 789 exit 2, 51 exit 0 and 18 exit 1, each of whose reports replays.
    DIGEST = "05b7d2e552839d09bdba3440ff7bd73a658732a1e10e93e191ab392c38f870d6"

    def test_outputs_and_replays_are_pinned(self, capsys, tmp_path):
        digest, report = hashlib.sha256(), tmp_path / "report.json"
        for trusted, tested, command in itertools.product(self.TRUSTED, self.TESTED, self.COMMANDS):
            argv = (*command, "--trusted", trusted, "--tested", tested, "--vars", "3", "--seed", "1")
            code, out, _ = run_cli(capsys, *argv)
            digest.update(json.dumps([argv, code, out]).encode())
            if code == EXIT_COUNTEREXAMPLE:
                report.write_text(out)
                code, out, _ = run_cli(capsys, "replay", "--report", str(report))
                digest.update(json.dumps(["replay", code, out]).encode())
        assert digest.hexdigest() == self.DIGEST
