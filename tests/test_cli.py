import json
import pathlib
import re
import shlex

import pytest
from click.testing import CliRunner

from infodep.cli import main, model_from_doc, model_to_doc, ModelFileError
from infodep.model import builtin, builtin_names


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


class TestModelFiles:
    @pytest.mark.parametrize("name", builtin_names())
    def test_round_trip_all_builtins(self, name):
        m = builtin(name)
        doc = model_to_doc(m)
        m2 = model_from_doc(doc)
        assert model_to_doc(m2) == doc
        m3 = model_from_doc(model_to_doc(m2))
        assert m2.space == m3.space
        assert m2.info == m3.info
        assert m2.prior == m3.prior
        assert m2.canonical_profile == m3.canonical_profile

    def test_float_probability_rejected(self, xor_model):
        doc = model_to_doc(xor_model)
        doc["nature"]["X0"]["prob"]["1"] = 0.1
        with pytest.raises(ModelFileError):
            model_from_doc(doc)

    def test_unknown_agent_in_info_rejected(self, xor_model):
        doc = model_to_doc(xor_model)
        doc["info"]["X9"] = {"mask": {"nature": [], "decision": []}}
        with pytest.raises(ModelFileError):
            model_from_doc(doc)

    def test_missing_format_version_rejected(self, xor_model):
        doc = model_to_doc(xor_model)
        del doc["format_version"]
        with pytest.raises(ModelFileError):
            model_from_doc(doc)

    def test_incomplete_policy_rejected(self, xor_model):
        doc = model_to_doc(xor_model)
        doc["policies"]["X0"] = doc["policies"]["X0"][:-1]
        with pytest.raises(ModelFileError):
            model_from_doc(doc)

    # obs_table rows (tikka-context), policy rows (xor) and negative labels (spirtes)
    @pytest.mark.parametrize("name", ["tikka-context", "witsenhausen-xor", "spirtes-discrete"])
    def test_integer_labels_load_as_decimal_text(self, name):
        doc = model_to_doc(builtin(name))
        int_doc = _int_labels(doc)
        assert int_doc != doc
        assert model_to_doc(model_from_doc(int_doc)) == doc


def _int_labels(node, key=None):
    """A model file with every label written as a JSON integer; the prob and
    meta sections stay as they are."""
    if key in ("prob", "meta"):
        return node
    if isinstance(node, dict):
        return {k: _int_labels(v, k) for k, v in node.items()}
    if isinstance(node, list):
        return [_int_labels(v) for v in node]
    return int(node) if isinstance(node, str) and node.lstrip("-").isdigit() else node


_DROP = object()


def _set(path, value):
    """Mutation of an exported builtin: set (or, for value _DROP, delete) doc[path]."""
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        if value is _DROP:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        return doc
    return mutate

MALFORMED_MODEL_FILES = {
    "missing-labels": ("witsenhausen-xor", _set(("nature", "X0", "labels"), _DROP)),
    "top-level-list": ("witsenhausen-xor", lambda doc: [doc]),
    "agents-int": ("witsenhausen-xor", _set(("agents",), 5)),
    "mask-nature-int": ("witsenhausen-xor", _set(("info", "X0", "mask", "nature"), 5)),
    "atom-not-int": ("tikka-context", _set(("info", "b", "obs_table", 0, "atom"), "x")),
    "prob-list": ("witsenhausen-xor", _set(("nature", "X0", "prob"), ["1/2", "1/2"])),
    "policy-row-int": ("witsenhausen-xor", _set(("policies", "X0", 0), 5)),
    "format-version-bool": ("witsenhausen-xor", _set(("format_version",), True)),
    "prob-bool": ("witsenhausen-xor", _set(("nature", "X0", "prob"), {"0": True, "1": False})),
    "obs-row-label-bool": ("tikka-context", _set(("info", "b", "obs_table", 0, "u", "s"), True)),
    "policy-row-label-bool": ("witsenhausen-xor",
                              _set(("policies", "X0", 0, "omega", "X0"), False)),
    "obs-row-unknown-agent": ("tikka-context", _set(("info", "b", "obs_table", 0, "omega", "zz"),
                                                    "9")),
    "policy-row-unknown-agent": ("witsenhausen-xor", _set(("policies", "X0", 0, "u", "qq"), "1")),
}


class TestValidateCommand:
    def test_exported_builtin_validates(self, runner, tmp_path):
        path = tmp_path / "xor.json"
        res = invoke(runner, "export", "--builtin", "witsenhausen-xor",
                     "--out", str(path))
        assert res.exit_code == 0
        res = invoke(runner, "validate", "--model", str(path),
                     "--require-local-noise")
        assert res.exit_code == 0

    def test_parse_error_exits_2(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        res = invoke(runner, "validate", "--model", str(path))
        assert res.exit_code == 2

    @pytest.mark.parametrize("case", sorted(MALFORMED_MODEL_FILES))
    def test_malformed_model_file_exits_2(self, runner, tmp_path, case):
        name, mutate = MALFORMED_MODEL_FILES[case]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(mutate(model_to_doc(builtin(name)))))
        res = invoke(runner, "validate", "--model", str(path))
        assert res.exit_code == 2
        assert "Traceback" not in res.output

    def test_unknown_agent_reference_exits_2(self, runner, tmp_path):
        doc = model_to_doc(builtin("common-cause"))
        doc["info"]["Z"] = {"mask": {"nature": ["Q"], "decision": []}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        res = invoke(runner, "validate", "--model", str(path))
        assert res.exit_code == 2

    def test_local_noise_violation_exits_1(self, runner, tmp_path):
        doc = model_to_doc(builtin("common-cause"))
        doc["info"]["T"] = {"mask": {"nature": ["T", "Z"], "decision": ["Z"]}}
        path = tmp_path / "spy.json"
        path.write_text(json.dumps(doc))
        res = invoke(runner, "validate", "--model", str(path),
                     "--require-local-noise")
        assert res.exit_code == 1
        doc_out = json.loads(res.output)
        bad = [c for c in doc_out["checks"] if not c["passed"]]
        assert bad and bad[0]["witness"] is not None


class TestQueryCommands:
    def test_separate_jpcbh(self, runner):
        res = invoke(runner, "separate", "--builtin", "jpcbh",
                     "--y", "X1", "--z", "X2", "--w", "Y1,Y2")
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["verdict"] == "separated"
        assert doc["certificate"]["closure_y"] == ["X1", "Y1", "xi1"]

    def test_separate_negative_exit(self, runner):
        res = invoke(runner, "separate", "--builtin", "witsenhausen-xor",
                     "--y", "X3", "--z", "X4", "--w", "X0,X1")
        assert res.exit_code == 1

    def test_separate_overlap_exits_2(self, runner):
        res = invoke(runner, "separate", "--builtin", "witsenhausen-xor",
                     "--y", "X3", "--z", "X3")
        assert res.exit_code == 2

    def test_closure(self, runner):
        res = invoke(runner, "closure", "--builtin", "kuh",
                     "--b", "Y1,W", "--w", "W")
        assert res.exit_code == 0
        assert json.loads(res.output)["closure"] == ["W", "X3", "Y1"]

    def test_precedence_tsv(self, runner):
        res = invoke(runner, "precedence", "--builtin", "witsenhausen-xor",
                     "--format", "tsv")
        assert res.exit_code == 0
        lines = res.output.strip().splitlines()
        assert lines[0] == "agent\tpredecessors"
        assert "X0\tX1,X2,X3" in lines

    def test_precedence_context_pin(self, runner):
        res = invoke(runner, "precedence", "--builtin", "tikka-context",
                     "--pin-decision", "s=0")
        doc = json.loads(res.output)
        assert doc["predecessors"]["b"] == []

    def test_dsep_builtin_and_edges(self, runner):
        res = invoke(runner, "dsep", "--builtin", "kuh",
                     "--y", "Y1", "--z", "Y2", "--w", "W")
        assert res.exit_code == 0
        res = invoke(runner, "dsep", "--edges", "X->C;Y->C",
                     "--y", "X", "--z", "Y", "--w", "C")
        assert res.exit_code == 1

    def test_solve(self, runner):
        res = invoke(runner, "solve", "--builtin", "spirtes-discrete")
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["results"][0]["solvable"] is False

    def test_dist_matches_table(self, runner):
        res = invoke(runner, "dist", "--builtin", "witsenhausen-xor",
                     "--target", "X4", "--given", "X0,X1,X2,X3",
                     "--format", "tsv")
        assert res.exit_code == 0
        lines = res.output.strip().splitlines()
        row = [l for l in lines if l.startswith("0\t0\t0\t0\t1")]
        assert row and row[0].split("\t")[-2:] == ["1/82", "0.012"]

    def test_ci_exit_codes(self, runner):
        res = invoke(runner, "ci", "--builtin", "witsenhausen-xor",
                     "--a", "X3", "--b", "X4", "--given", "X0,X1,X2")
        assert res.exit_code == 0
        res = invoke(runner, "ci", "--builtin", "witsenhausen-xor",
                     "--a", "X3", "--b", "X4", "--given", "X0,X1")
        assert res.exit_code == 1
        assert json.loads(res.output)["witness"] is not None

    def test_docalc(self, runner):
        res = invoke(runner, "docalc", "--builtin", "witsenhausen-xor",
                     "--y", "X3", "--z", "X4", "--w", "X0,X1,X2",
                     "--policy-trials", "5", "--prior-trials", "1")
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["verdict"] == "SEPARATED" and doc["failures"] == []

    def test_rule1(self, runner):
        # a context's fixed decisions are conditioned on, so rule 1 is docalc
        # under pinned decisions and has no command of its own
        query = ("--builtin", "tikka-context", "--y", "b", "--z", "a", "--pin-decision", "s=0")
        res = runner.invoke(main, ["rule1", *query])
        assert res.exit_code == 2 and "No such command 'rule1'" in res.stderr
        res = invoke(runner, "docalc", *query, "--policy-trials", "20", "--prior-trials", "2")
        assert res.exit_code == 0

    def test_causality_exit_codes(self, runner):
        res = invoke(runner, "causality", "--builtin", "witsenhausen-xor")
        assert res.exit_code == 1
        assert "no causal ordering found (exhaustive)" in res.output
        res = invoke(runner, "causality", "--builtin", "common-cause")
        assert res.exit_code == 0

    def test_intervene_writes_loadable_model(self, runner, tmp_path):
        path = tmp_path / "cc-do-t.json"
        res = invoke(runner, "intervene", "--builtin", "common-cause",
                     "--target", "T", "--out", str(path))
        assert res.exit_code == 0
        res = invoke(runner, "validate", "--model", str(path),
                     "--require-local-noise")
        assert res.exit_code == 0
        res = invoke(runner, "precedence", "--model", str(path),
                     "--pin-decision", "I=1")
        doc = json.loads(res.output)
        assert "Z" not in doc["predecessors"]["T"]

    def test_model_and_builtin_both_given_exits_2(self, runner, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{}")
        res = invoke(runner, "validate", "--model", str(path),
                     "--builtin", "witsenhausen-xor")
        assert res.exit_code == 2

    def test_context_file(self, runner, tmp_path):
        m = builtin("tikka-context")
        rows = []
        for i in range(m.space.n_configs):
            cfg = m.space.config_at(i)
            if cfg.decision_part["s"] == "0":
                rows.append({"omega": cfg.nature_part, "u": cfg.decision_part})
        path = tmp_path / "ctx.json"
        path.write_text(json.dumps(rows))
        res = invoke(runner, "precedence", "--builtin", "tikka-context",
                     "--context-file", str(path))
        doc = json.loads(res.output)
        assert doc["predecessors"]["b"] == []

    def test_context_file_with_integer_labels(self, runner, tmp_path):
        m = builtin("tikka-context")
        configs = map(m.space.config_at, range(m.space.n_configs))
        rows = [_int_labels({"omega": cfg.nature_part, "u": cfg.decision_part})
                for cfg in configs if cfg.decision_part["s"] == "0"]
        path = tmp_path / "ctx.json"
        path.write_text(json.dumps(rows))
        res = invoke(runner, "precedence", "--builtin", "tikka-context",
                     "--context-file", str(path))
        assert json.loads(res.output)["predecessors"]["b"] == []

    @pytest.mark.parametrize("part, extra", [("omega", {"zz": "9"}), ("u", {"qq": "1"})])
    def test_context_row_naming_unknown_agent_exits_2(self, runner, tmp_path, part, extra):
        cfg = builtin("tikka-context").space.config_at(0)
        row = {"omega": cfg.nature_part, "u": cfg.decision_part}
        row[part] = {**row[part], **extra}
        path = tmp_path / "ctx.json"
        path.write_text(json.dumps([row]))
        res = invoke(runner, "separate", "--builtin", "tikka-context", "--y", "a", "--z", "b",
                     "--context-file", str(path))
        assert res.exit_code == 2
        assert "unknown agents" in res.stderr


XOR_Q = ("--builtin", "witsenhausen-xor", "--y", "X3", "--z", "X4")

# "{missing}" is a path inside a directory that does not exist
USAGE_ERRORS = {
    "solve-negative-sample": ("solve", "--builtin", "witsenhausen-xor", "--sample", "-3"),
    "solve-negative-seed": ("solve", "--builtin", "witsenhausen-xor", "--sample", "2",
                            "--seed", "-1"),
    "docalc-negative-policy-trials": ("docalc", *XOR_Q, "--policy-trials", "-1"),
    "docalc-negative-prior-trials": ("docalc", *XOR_Q, "--prior-trials", "-1"),
    "docalc-negative-seed": ("docalc", *XOR_Q, "--seed", "-5"),
    "reproduce-negative-seed": ("reproduce", "fig2", "--seed", "-1"),
    "precedence-pinned-twice": ("precedence", "--builtin", "tikka-context",
                                "--pin-decision", "s=0", "--pin-decision", "s=1"),
    # no option caps the agents: the memo budget and the 63-axis limit do
    "causality-max-agents-removed": ("causality", "--builtin", "kuh", "--max-agents", "7"),
    "validate-unwritable-out": ("validate", "--builtin", "kuh", "--out", "{missing}"),
    "export-unwritable-out": ("export", "--builtin", "kuh", "--out", "{missing}"),
    "intervene-unwritable-out": ("intervene", "--builtin", "common-cause", "--target", "T",
                                 "--out", "{missing}"),
    "separate-unwritable-out": ("separate", *XOR_Q, "--w", "X0,X1,X2", "--out", "{missing}"),
    "precedence-tsv-unwritable-out": ("precedence", "--builtin", "kuh", "--format", "tsv",
                                      "--out", "{missing}"),
    "dsep-edge-without-tail": ("dsep", "--edges", "->B", "--y", "A", "--z", "B"),
    "dsep-edge-without-head": ("dsep", "--edges", "A->", "--y", "A", "--z", "B"),
    "dsep-edge-with-blank-head": ("dsep", "--edges", "A-> ", "--y", "A", "--z", "B"),
    "dsep-edge-with-two-arrows": ("dsep", "--edges", "A->B->C", "--y", "A", "--z", "C"),
    # far past the sampling limit: refused before anything is drawn
    "solve-oversized-sample": ("solve", "--builtin", "witsenhausen-xor",
                               "--sample", "1000000000000"),
    "docalc-oversized-policy-trials": ("docalc", *XOR_Q, "--policy-trials", "1000000000000"),
    "docalc-oversized-prior-trials": ("docalc", *XOR_Q, "--prior-trials", "1000000000000"),
}


class TestExitCodeContract:
    @pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
    def test_usage_error_exits_2_without_traceback(self, runner, tmp_path, case):
        missing = str(tmp_path / "no-such-dir" / "out.json")
        res = invoke(runner, *(a.replace("{missing}", missing) for a in USAGE_ERRORS[case]))
        assert res.exit_code == 2
        assert "error:" in res.stderr.lower()
        assert "Traceback" not in res.output
        assert not (tmp_path / "no-such-dir").exists()

    def test_docalc_with_65_nature_labels(self, runner, tmp_path):
        # a sampled prior over k labels needs a denominator of at least k
        labels = [str(v) for v in range(65)]
        doc = {
            "format_version": 1,
            "agents": ["a", "b"],
            "nature": {"a": {"labels": labels, "prob": {v: "1/65" for v in labels}},
                       "b": {"labels": ["0"], "prob": {"0": "1"}}},
            "decisions": {"a": ["0", "1"], "b": ["0", "1"]},
            "info": {"a": {"mask": {"nature": ["a"], "decision": []}},
                     "b": {"mask": {"nature": ["b"], "decision": []}}},
        }
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        res = runner.invoke(main, ["docalc", "--model", str(path), "--y", "a", "--z", "b",
                                   "--policy-trials", "1", "--prior-trials", "2"])
        assert res.exit_code == 0, res.output
        out = json.loads(res.output)
        assert out["verdict"] == "SEPARATED" and out["failures"] == []
        assert out["checks_run"] > 0


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    """Every `infodep ...` line of the README's shell blocks, comments dropped."""
    blocks = re.findall(r"```bash\n(.*?)```", README.read_text(), re.S)
    return [shlex.split(line, comments=True)[1:] for block in blocks
            for line in block.splitlines() if line.startswith("infodep ")]


class TestReadmeCommands:
    def test_every_readme_command_runs(self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        commands = readme_commands()
        assert len(commands) >= 15
        codes = {}
        for args in commands:
            res = runner.invoke(main, args)
            assert res.exit_code in (0, 1), (args, res.output)
            assert res.exception is None or isinstance(res.exception, SystemExit), args
            assert "Traceback" not in res.output, args
            codes[" ".join(args)] = res.exit_code
        # the README says: exits 1, none exists
        assert codes["causality --builtin witsenhausen-xor"] == 1


class TestSeededReproducibility:
    def test_docalc_identical_under_seed(self, runner):
        outs = []
        for _ in range(2):
            res = invoke(runner, "docalc", "--builtin", "witsenhausen-xor",
                         "--y", "X3", "--z", "X4", "--w", "X0,X1,X2",
                         "--policy-trials", "3", "--prior-trials", "1",
                         "--seed", "9")
            doc = json.loads(res.output)
            doc.pop("timing_s")
            outs.append(doc)
        assert outs[0] == outs[1]


class TestReproduce:
    @pytest.mark.parametrize("scenario", ["table1", "fig2", "fig3", "fig4"])
    def test_scenarios_pass(self, runner, scenario):
        res = invoke(runner, "reproduce", scenario)
        assert res.exit_code == 0
        assert json.loads(res.output)["verdict"] == "pass"

    def test_equivalence_small_seeded(self, runner):
        # the full 200-graph run lives in the acceptance suite
        from infodep.dsep import equivalence_harness

        rep = equivalence_harness(5, 5, 0.3, seed=2)
        assert rep.all_agree
