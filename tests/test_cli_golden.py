"""Golden pins for the command-line surface.

Each case runs one CLI invocation and compares its exit code, stderr, and
stdout (parsed JSON without `timing_s`, or the exact TSV text) with
`tests/cli_golden.json`; an `--out` file is compared the same way.  The
options of every subcommand (flags, defaults, required, multiple, choices)
are pinned as well, so a refactor of `infodep.cli` cannot add, drop or
re-default one unnoticed.

After a deliberate change of the CLI output, rewrite the golden file with
`PYTHONPATH=src python tests/test_cli_golden.py` and review its diff.
"""

import json
import pathlib
import sys
import tempfile

import click
import pytest
from click.testing import CliRunner

from infodep.cli import main, model_to_doc
from infodep.model import builtin

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")

XOR = ("--builtin", "witsenhausen-xor")
TIKKA = ("--builtin", "tikka-context")
FEW_TRIALS = ("--policy-trials", "5", "--prior-trials", "1")

# "{tmp}" is a fresh directory holding spy.json, a common-cause model whose
# treatment T observes the confounder's noise (it fails the local-noise check).
CASES = {
    "validate-valid": ("validate", *XOR, "--require-local-noise"),
    "validate-invalid": ("validate", "--model", "{tmp}/spy.json", "--require-local-noise"),
    "validate-out": ("validate", "--builtin", "kuh", "--out", "{tmp}/out.json"),
    "export": ("export", "--builtin", "tikka-context", "--out", "{tmp}/out.json"),
    "separate-separated": ("separate", "--builtin", "jpcbh",
                           "--y", "X1", "--z", "X2", "--w", "Y1,Y2"),
    "separate-not-separated": ("separate", *XOR, "--y", "X3", "--z", "X4", "--w", "X0,X1"),
    "separate-pinned": ("separate", *TIKKA, "--y", "b", "--z", "a", "--pin-decision", "s=0"),
    # X1 is a pinned descendant of the collider Y1: conditioning on it opens
    # the path X3 -> Y1 <- W
    "separate-pinned-collider": ("separate", "--builtin", "kuh", "--y", "X3", "--z", "W",
                                 "--pin-decision", "X1=0"),
    "separate-overlap": ("separate", *XOR, "--y", "X3", "--z", "X3"),
    "separate-tsv": ("separate", "--builtin", "jpcbh", "--y", "X1", "--z", "X2", "--w", "Y1,Y2",
                     "--format", "tsv"),
    "closure": ("closure", "--builtin", "kuh", "--b", "Y1,W", "--w", "W"),
    "closure-out": ("closure", "--builtin", "kuh", "--b", "Y2", "--out", "{tmp}/out.json"),
    "precedence": ("precedence", *XOR),
    "precedence-tsv": ("precedence", *XOR, "--format", "tsv"),
    "precedence-pinned-tsv": ("precedence", *TIKKA, "--pin-decision", "s=0",
                              "--format", "tsv"),
    "precedence-oracle": ("precedence", "--builtin", "common-cause", "--oracle"),
    "precedence-tsv-out": ("precedence", "--builtin", "jpcbh", "--w", "Y1",
                           "--format", "tsv", "--out", "{tmp}/out.tsv"),
    "precedence-bad-pin": ("precedence", *TIKKA, "--pin-decision", "s"),
    "precedence-unknown-label": ("precedence", *TIKKA, "--pin-decision", "s=7"),
    "precedence-pins-and-file": ("precedence", *TIKKA, "--pin-decision", "s=0",
                                 "--context-file", "{tmp}/spy.json"),
    "precedence-context-absent": ("precedence", *TIKKA, "--context-file", "{tmp}/absent.json"),
    "precedence-context-not-list": ("precedence", *TIKKA, "--context-file", "{tmp}/spy.json"),
    "dsep-separated": ("dsep", "--builtin", "kuh", "--y", "Y1", "--z", "Y2", "--w", "W"),
    "dsep-edges-not-separated": ("dsep", "--edges", "X->C;Y->C",
                                 "--y", "X", "--z", "Y", "--w", "C"),
    "dsep-bad-edge": ("dsep", "--edges", "X-C", "--y", "X", "--z", "C"),
    "dsep-no-dag": ("dsep", *XOR, "--y", "X3", "--z", "X4"),
    "solve-canonical": ("solve", "--builtin", "spirtes-discrete"),
    "solve-sampled": ("solve", *XOR, "--sample", "3", "--seed", "5"),
    "solve-no-policies": ("solve", "--builtin", "kuh"),
    "solve-tsv": ("solve", "--builtin", "spirtes-discrete", "--format", "tsv"),
    "dist": ("dist", *XOR, "--target", "X4", "--given", "X0,X1,X2,X3"),
    "dist-tsv": ("dist", *XOR, "--target", "X4", "--given", "X0,X1,X2,X3",
                 "--format", "tsv"),
    "dist-pinned-tsv": ("dist", *XOR, "--target", "X3,X4", "--pin-nature", "X0=1",
                        "--format", "tsv"),
    "dist-no-prior": ("dist", "--builtin", "kuh", "--target", "Y1"),
    "ci-independent": ("ci", *XOR, "--a", "X3", "--b", "X4", "--given", "X0,X1,X2"),
    "ci-dependent": ("ci", *XOR, "--a", "X3", "--b", "X4", "--given", "X0,X1"),
    "docalc-separated": ("docalc", *XOR, "--y", "X3", "--z", "X4", "--w", "X0,X1,X2",
                         *FEW_TRIALS, "--seed", "3"),
    "docalc-not-separated": ("docalc", *XOR, "--y", "X3", "--z", "X4", "--w", "X0,X1",
                             *FEW_TRIALS),
    "docalc-flagship": ("docalc", *XOR, "--y", "X3", "--z", "X4", "--w", "X0,X1,X2",
                        "--policy-trials", "10", "--prior-trials", "40"),
    "docalc-pinned": ("docalc", *TIKKA, "--y", "b", "--z", "a", "--pin-decision", "s=0",
                      *FEW_TRIALS),
    "docalc-pinned-not-separated": ("docalc", *TIKKA, "--y", "b", "--z", "a",
                                    "--pin-decision", "s=1", *FEW_TRIALS),
    "docalc-pinned-collider": ("docalc", "--builtin", "kuh", "--y", "X3", "--z", "W",
                               "--pin-decision", "X1=0", "--policy-trials", "10",
                               "--prior-trials", "2"),
    "intervene": ("intervene", "--builtin", "common-cause", "--target", "T",
                  "--switch-prob", "1/3", "--out", "{tmp}/out.json"),
    "intervene-bad-prob": ("intervene", "--builtin", "common-cause", "--target", "T",
                           "--switch-prob", "x", "--out", "{tmp}/out.json"),
    "intervene-unknown-target": ("intervene", "--builtin", "common-cause", "--target", "Q",
                                 "--out", "{tmp}/out.json"),
    "causality-found": ("causality", "--builtin", "common-cause"),
    "causality-none": ("causality", *XOR),
    "causality-capped": ("causality", "--builtin", "kuh"),
    "causality-kuh-found": ("causality", "--builtin", "kuh"),
    "causality-jpcbh-none": ("causality", "--builtin", "jpcbh"),
    "model-and-builtin": ("closure", "--model", "{tmp}/spy.json", "--builtin", "kuh",
                          "--b", "T"),
    "missing-model-file": ("validate", "--model", "{tmp}/absent.json"),
    "reproduce-table1": ("reproduce", "table1"),
    "reproduce-fig2": ("reproduce", "fig2"),
    "reproduce-fig3": ("reproduce", "fig3"),
    "reproduce-fig4": ("reproduce", "fig4"),
}


def _parsed(text: str):
    """JSON without its run time, else the text as is (TSV, empty)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return text
    if isinstance(doc, dict):
        doc.pop("timing_s", None)
    return doc


def run_case(args, tmp: pathlib.Path) -> dict:
    spy = model_to_doc(builtin("common-cause"))
    spy["info"]["T"] = {"mask": {"nature": ["T", "Z"], "decision": ["Z"]}}
    (tmp / "spy.json").write_text(json.dumps(spy))
    res = CliRunner().invoke(main, [a.replace("{tmp}", str(tmp)) for a in args])
    outs = {p.name: _parsed(p.read_text()) for p in sorted(tmp.glob("out.*"))}
    return {
        "exit_code": res.exit_code,
        "stdout": _parsed(res.stdout),
        "stderr": res.stderr.replace(str(tmp), "{tmp}"),
        "out_files": outs,
    }


def _default(value):
    return value if value is None or isinstance(value, (bool, int, str)) else repr(value)


def option_surface() -> dict:
    surface = {}
    for name, cmd in sorted(main.commands.items()):
        surface[name] = [
            {
                "opts": list(p.opts),
                "default": _default(p.default),
                "required": p.required,
                "multiple": p.multiple,
                "is_flag": bool(getattr(p, "is_flag", False)),
                "choices": (list(p.type.choices)
                            if isinstance(p.type, click.Choice) else None),
            }
            for p in cmd.params
        ]
    return surface


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_invocation_matches_golden(golden, tmp_path, case):
    assert run_case(CASES[case], tmp_path) == golden["cases"][case]


def test_every_case_is_pinned(golden):
    assert sorted(golden["cases"]) == sorted(CASES)


def test_option_surface_matches_golden(golden):
    assert option_surface() == golden["options"]


if __name__ == "__main__":
    cases = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            cases[case] = run_case(CASES[case], pathlib.Path(tmp))
    # one line per case and per subcommand, so that a diff names what moved
    sections = {"options": option_surface(), "cases": cases}
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: {{\n" + ",\n".join(
            f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(body.items())
        ) + "\n}"
        for key, body in sections.items()
    ) + "\n}\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}", file=sys.stderr)
