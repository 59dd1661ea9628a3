"""Command-line surface: model files, query commands, reproduction scenarios.

Model files are JSON with exact "p/q" rationals (float literals are
rejected).  Exit codes are a stable contract: 0 for success or a positive
verdict, 1 for a definite negative verdict, 2 for usage or parse errors.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

import click
import numpy as np

from .fieldcore import (
    ConfigSet,
    ConfigSpace,
    Configuration,
    CoordinateMask,
    FieldcoreError,
    FiniteSpace,
    partition_from_codes,
)
from .model import (
    Dag,
    InformationField,
    InterventionSpec,
    ModelMeta,
    Prior,
    WModel,
    builtin,
    builtin_names,
    intervene,
    validate_model,
)
from .precedence import closure as topo_closure
from .precedence import precedes, precedes_oracle, topologically_separated
from .probability import (
    CondQuery,
    cond_independent,
    conditional,
    display_3dec,
    pushforward,
    reproduce_table1,
    verify_docalculus,
)
from .dsep import DsepQuery, d_separated, equivalence_harness
from .solvability import (
    PolicyProfile,
    Policy,
    find_causal_ordering,
    sample_profiles,
    solve,
)

FORMAT_VERSION = 1


class ModelFileError(FieldcoreError):
    pass


# ---------------------------------------------------------------------------
# model file schema
# ---------------------------------------------------------------------------

def _parse_fraction(text) -> Fraction:
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise ModelFileError(f"rational must be a 'p/q' string, got {text!r}")
    parts = text.split("/")
    try:
        if len(parts) == 1:
            return Fraction(int(parts[0]))
        if len(parts) == 2:
            return Fraction(int(parts[0]), int(parts[1]))
    except (ValueError, ZeroDivisionError) as e:
        raise ModelFileError(f"bad rational {text!r}: {e}") from None
    raise ModelFileError(f"bad rational {text!r}")


# FiniteSpace reads an integer label as its decimal text.
_LABEL = (str, int)


def _typed(value, kinds, what: str):
    """`value` if it is one of `kinds` (a bool never is), else a ModelFileError."""
    kinds = kinds if isinstance(kinds, tuple) else (kinds,)
    if isinstance(value, bool) or not isinstance(value, kinds):
        names = " or ".join(k.__name__ for k in kinds)
        raise ModelFileError(f"{what} must be {names}, got {type(value).__name__}")
    return value


def _list_of(value, kinds, what: str) -> list:
    for item in _typed(value, list, what):
        _typed(item, kinds, f"entry of {what}")
    return value


def _key(doc: dict, key: str, what: str):
    try:
        return doc[key]
    except KeyError:
        raise ModelFileError(f"{what} missing key {key!r}") from None


def _config_from_doc(space: ConfigSpace, doc: dict) -> Configuration:
    """One configuration row; an integer label is read as its decimal text."""
    _typed(doc, dict, "configuration row")
    parts = []
    for part in ("omega", "u"):
        labels = _typed(_key(doc, part, "configuration row"), dict, f"configuration '{part}'")
        parts.append({a: str(_typed(v, _LABEL, f"configuration '{part}' label"))
                      for a, v in labels.items()})
    return Configuration(space, *parts)


def _config_to_doc(cfg: Configuration) -> dict:
    return {"omega": dict(cfg.nature_part), "u": dict(cfg.decision_part)}


def model_to_doc(m: WModel) -> dict:
    doc: dict = {
        "format_version": FORMAT_VERSION,
        "meta": {
            "name": m.meta.name,
            "provenance": m.meta.provenance,
            "notes": m.meta.notes,
        },
        "agents": list(m.agents),
        "nature": {},
        "decisions": {a: list(m.decisions[a].elements) for a in m.agents},
        "info": {},
    }
    for a in m.agents:
        entry: dict = {"labels": list(m.nature[a].elements)}
        if m.prior is not None:
            entry["prob"] = {
                lab: str(m.prior.mass(a, lab)) for lab in m.nature[a].elements
            }
        doc["nature"][a] = entry
    for a in m.agents:
        f = m.info[a]
        if f.mask is not None:
            doc["info"][a] = {"mask": {
                "nature": sorted(f.mask.nature),
                "decision": sorted(f.mask.decision),
            }}
        else:
            rows = []
            for i in range(m.space.n_configs):
                cfg = m.space.config_at(i)
                rows.append({**_config_to_doc(cfg), "atom": int(f.partition.atom_index[i])})
            doc["info"][a] = {"obs_table": rows}
    if m.canonical_profile is not None:
        pol_doc = {}
        for a in m.agents:
            pol = m.canonical_profile[a]
            rows = []
            for atom, rep in enumerate(m.info[a].partition.representatives()):
                rows.append({
                    **_config_to_doc(m.space.config_at(rep)),
                    "decision": m.decisions[a].elements[int(pol.table[atom])],
                })
            pol_doc[a] = rows
        doc["policies"] = pol_doc
    return doc


def model_from_doc(doc: dict) -> WModel:
    """Parse a model file's JSON; every malformed input raises ModelFileError."""
    try:
        return _parse_model_doc(doc)
    except FieldcoreError as e:
        raise ModelFileError(str(e)) from None


def _parse_model_doc(doc: dict) -> WModel:
    _typed(doc, dict, "model file")
    version = doc.get("format_version")
    if isinstance(version, bool) or version != FORMAT_VERSION:
        raise ModelFileError("missing or unsupported format_version")
    agents = tuple(_list_of(_key(doc, "agents", "model file"), str, "'agents'"))
    nature_doc = _typed(_key(doc, "nature", "model file"), dict, "'nature'")
    decisions_doc = _typed(_key(doc, "decisions", "model file"), dict, "'decisions'")
    info_doc = _typed(_key(doc, "info", "model file"), dict, "'info'")
    for section in (nature_doc, decisions_doc, info_doc):
        unknown = set(section) - set(agents)
        if unknown:
            raise ModelFileError(f"section references unknown agents {sorted(unknown)}")
    nature = {}
    prob_entries = {}
    for a in agents:
        try:
            entry = _typed(nature_doc[a], dict, f"nature.{a}")
        except KeyError:
            raise ModelFileError(f"nature section missing agent {a!r}") from None
        labels = _list_of(_key(entry, "labels", f"nature.{a}"), _LABEL, f"nature.{a}.labels")
        nature[a] = FiniteSpace(f"omega[{a}]", tuple(labels))
        if "prob" in entry:
            prob = _typed(entry["prob"], dict, f"nature.{a}.prob")
            prob_entries[a] = {k: _parse_fraction(v) for k, v in prob.items()}
    decisions = {}
    for a in agents:
        try:
            labels = decisions_doc[a]
        except KeyError:
            raise ModelFileError(f"decisions section missing agent {a!r}") from None
        labels = _list_of(labels, _LABEL, f"decisions.{a}")
        decisions[a] = FiniteSpace(f"u[{a}]", tuple(labels))
    space = ConfigSpace(agents, nature, decisions)

    info = {}
    for a in agents:
        entry = info_doc.get(a)
        if entry is None:
            raise ModelFileError(f"info section missing agent {a!r}")
        _typed(entry, dict, f"info.{a}")
        if "mask" in entry:
            mask_doc = _typed(entry["mask"], dict, f"info.{a}.mask")
            mask = CoordinateMask(**{
                kind: frozenset(_list_of(mask_doc.get(kind, []), str, f"info.{a}.mask.{kind}"))
                for kind in ("nature", "decision")
            })
            space.validate_mask(mask)
            info[a] = InformationField.from_mask(space, a, mask)
        elif "obs_table" in entry:
            raw = np.full(space.n_configs, -1, dtype=np.int64)
            for row in _typed(entry["obs_table"], list, f"info.{a}.obs_table"):
                cfg = _config_from_doc(space, row)
                atom = _typed(_key(row, "atom", "obs_table row"), int, "obs_table 'atom'")
                if not 0 <= atom < 2 ** 63:
                    raise ModelFileError(f"obs_table atom {atom} is not a non-negative int64")
                raw[space.index_of(cfg)] = atom
            if np.any(raw < 0):
                raise ModelFileError(f"obs_table for {a!r} does not cover the space")
            info[a] = InformationField(a, partition_from_codes(space, raw))
        else:
            raise ModelFileError(f"info for {a!r} needs a 'mask' or an 'obs_table'")

    prior = None
    if prob_entries:
        if set(prob_entries) != set(agents):
            raise ModelFileError("either every agent or none carries a 'prob'")
        prior = Prior(prob_entries)

    profile = None
    if "policies" in doc:
        policies = {}
        for a, rows in _typed(doc["policies"], dict, "'policies'").items():
            if a not in agents:
                raise ModelFileError(f"policies reference unknown agent {a!r}")
            part = info[a].partition
            table = np.full(part.atom_count, -1, dtype=np.int64)
            for row in _typed(rows, list, f"policies.{a}"):
                cfg = _config_from_doc(space, row)
                label = _typed(_key(row, "decision", "policy row"), _LABEL,
                               "policy 'decision'")
                table[part.atom_of(cfg)] = decisions[a].index(str(label))
            if np.any(table < 0):
                raise ModelFileError(f"policy for {a!r} leaves atoms undefined")
            policies[a] = Policy(a, table)
        if set(policies) != set(agents):
            raise ModelFileError("policies must cover every agent when present")
        profile = PolicyProfile(policies)

    meta_doc = _typed(doc.get("meta", {}), dict, "'meta'")
    meta = ModelMeta(
        name=str(meta_doc.get("name", "model")),
        provenance=str(meta_doc.get("provenance", "USER")),
        notes=str(meta_doc.get("notes", "")),
    )
    return WModel(space, info, prior=prior, canonical_profile=profile, meta=meta)


def load_model_file(path: str) -> WModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ModelFileError(f"cannot read model file: {e}") from None
    return model_from_doc(doc)


# ---------------------------------------------------------------------------
# option plumbing
# ---------------------------------------------------------------------------

def _model(model_path, builtin_name) -> WModel:
    if (model_path is None) == (builtin_name is None):
        raise FieldcoreError("give exactly one of --model or --builtin")
    if model_path is not None:
        return load_model_file(model_path)
    return builtin(builtin_name)


class _AgentList(click.ParamType):
    """Comma-separated agent names, e.g. 'X0,X1'; the empty text is no agent."""

    name = "agents"

    def convert(self, value, param, ctx):
        if isinstance(value, list):
            return value
        return [t.strip() for t in value.split(",") if t.strip()]


_AGENTS = _AgentList()
_COUNT = click.IntRange(min=0)


def _decisions(agents) -> CoordinateMask:
    return CoordinateMask(frozenset(), frozenset(agents))


def _parse_pins(pairs) -> dict[str, str]:
    out = {}
    for p in pairs:
        if "=" not in p:
            raise FieldcoreError(f"pin {p!r} must look like agent=label")
        k, v = (t.strip() for t in p.split("=", 1))
        if k in out:
            raise FieldcoreError(f"{k!r} is pinned twice")
        out[k] = v
    return out


def _context_from_options(m: WModel, pin_nature, pin_decision, context_file) -> ConfigSet | None:
    pins_n = _parse_pins(pin_nature)
    pins_u = _parse_pins(pin_decision)
    if context_file is not None and (pins_n or pins_u):
        raise FieldcoreError("give pins or a context file, not both")
    try:
        if context_file is not None:
            with open(context_file, "r", encoding="utf-8") as fh:
                rows = json.load(fh)
            configs = [_config_from_doc(m.space, row)
                       for row in _typed(rows, list, "context file")]
            return ConfigSet.from_configs(m.space, configs)
        if not pins_n and not pins_u:
            return None
        return ConfigSet.from_pins(m.space, nature=pins_n, decision=pins_u)
    except (FieldcoreError, OSError, json.JSONDecodeError) as e:
        raise FieldcoreError(f"bad context: {e}") from None


def _write(text: str, out_path) -> None:
    """`text` into the file `out_path`, or onto stdout when no path is given."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _report(kind: str, t0: float, doc: dict, out_path, fmt: str, ok=None, tsv=None):
    """Write one report; for a verdict (`ok` given) exit 0 if it holds, else 1.

    The envelope adds `format_version`, `kind` and `timing_s` (seconds since
    `t0`) around `doc`.  `--format tsv` writes the `tsv` lines; a report
    without them has no TSV form, and asking for one is a usage error.
    """
    doc = {"format_version": FORMAT_VERSION, "kind": kind, **doc,
           "timing_s": time.perf_counter() - t0}
    if fmt == "tsv":
        if tsv is None:
            raise FieldcoreError(f"the {kind} report has no TSV form; use --format report")
        text = "\n".join(tsv) + "\n"
    else:
        text = json.dumps(doc, indent=2, default=_json_default) + "\n"
    _write(text, out_path)
    if ok is not None:
        sys.exit(0 if ok else 1)


def _json_default(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, frozenset):
        return sorted(obj)
    if isinstance(obj, (set, tuple)):
        return list(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, Configuration):
        return _config_to_doc(obj)
    raise TypeError(f"unserializable {type(obj)}")


def _cert_doc(cert) -> dict | None:
    if cert is None:
        return None
    return {
        "splitting": {"w_y": sorted(cert.splitting.w_y), "w_z": sorted(cert.splitting.w_z)},
        "closure_y": sorted(cert.closure_y),
        "closure_z": sorted(cert.closure_z),
    }


_model_opts = [
    click.option("--model", "model_path", type=click.Path(), default=None,
                 help="Model file (JSON)."),
    click.option("--builtin", "builtin_name", default=None,
                 type=click.Choice(builtin_names()), help="Builtin model name."),
]

_ctx_opts = [
    click.option("--pin-nature", multiple=True, metavar="AGENT=LABEL",
                 help="Restrict the context to a nature coordinate value."),
    click.option("--pin-decision", multiple=True, metavar="AGENT=LABEL",
                 help="Restrict the context to a decision coordinate value."),
    click.option("--context-file", type=click.Path(), default=None,
                 help="JSON list of explicit configurations."),
]

_out_opts = [
    click.option("--out", "out_path", type=click.Path(), default=None),
    click.option("--format", "fmt", type=click.Choice(["report", "tsv"]),
                 default="report"),
]


def _add_options(opts):
    def wrap(f):
        for o in reversed(opts):
            f = o(f)
        return f
    return wrap


class _Main(click.Group):
    """Holds the exit-code contract for every subcommand.

    A `FieldcoreError` (malformed input) or an `OSError` (a file that cannot
    be read or written) exits 2 with one `error:` line on stderr.  Any other
    exception is a bug and keeps its traceback.
    """

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (FieldcoreError, OSError) as e:
            click.echo(f"error: {e}", err=True)
            ctx.exit(2)


@click.group(cls=_Main)
def main():
    """Exact queries on finite information-field models."""


@main.command()
@_add_options(_model_opts)
@click.option("--require-local-noise", is_flag=True, default=False)
@_add_options(_out_opts)
def validate(model_path, builtin_name, require_local_noise, out_path, fmt):
    """Structural validation; exit 0 iff every check passes."""
    m = _model(model_path, builtin_name)
    t0 = time.perf_counter()
    report = validate_model(m, require_local_noise=require_local_noise)
    _report("validation", t0, {
        "model": m.meta.name,
        "provenance": m.meta.provenance,
        "notes": m.meta.notes,
        "verdict": "valid" if report.ok else "invalid",
        "checks": [
            {"agent": c.agent, "check": c.check, "passed": c.passed,
             "witness": list(c.witness) if c.witness else None}
            for c in report.checks
        ],
    }, out_path, fmt, ok=report.ok)


@main.command()
@_add_options(_model_opts)
@click.option("--out", "out_path", type=click.Path(), required=True)
def export(model_path, builtin_name, out_path):
    """Write a model (typically a builtin) as a model file."""
    m = _model(model_path, builtin_name)
    _write(json.dumps(model_to_doc(m), indent=2) + "\n", out_path)


@main.command()
@_add_options(_model_opts)
@click.option("--y", type=_AGENTS, required=True)
@click.option("--z", type=_AGENTS, required=True)
@click.option("--w", type=_AGENTS, default="")
@_add_options(_ctx_opts)
@_add_options(_out_opts)
def separate(model_path, builtin_name, y, z, w,
             pin_nature, pin_decision, context_file, out_path, fmt):
    """Topological separation; exit 0 separated, 1 not."""
    m = _model(model_path, builtin_name)
    ctx = _context_from_options(m, pin_nature, pin_decision, context_file)
    t0 = time.perf_counter()
    cert = topologically_separated(m, y, z, w, ctx)
    _report("separation", t0, {
        "query": {"y": y, "z": z, "w": w},
        "verdict": "separated" if cert else "not-separated",
        "certificate": _cert_doc(cert),
    }, out_path, fmt, ok=cert is not None)


@main.command()
@_add_options(_model_opts)
@click.option("--b", type=_AGENTS, required=True, help="Agent set to close.")
@click.option("--w", type=_AGENTS, default="")
@_add_options(_ctx_opts)
@_add_options(_out_opts)
def closure(model_path, builtin_name, b, w,
            pin_nature, pin_decision, context_file, out_path, fmt):
    """Topological closure of an agent set."""
    m = _model(model_path, builtin_name)
    ctx = _context_from_options(m, pin_nature, pin_decision, context_file)
    t0 = time.perf_counter()
    cl = topo_closure(m, b, w, ctx)
    _report("closure", t0, {"query": {"b": b, "w": w}, "closure": sorted(cl)},
            out_path, fmt)


@main.command()
@_add_options(_model_opts)
@click.option("--w", type=_AGENTS, default="")
@click.option("--oracle", is_flag=True, default=False,
              help="Use the exponential subset-enumeration oracle.")
@_add_options(_ctx_opts)
@_add_options(_out_opts)
def precedence(model_path, builtin_name, w, oracle,
               pin_nature, pin_decision, context_file, out_path, fmt):
    """Conditional precedence relation, agent by agent."""
    m = _model(model_path, builtin_name)
    ctx = _context_from_options(m, pin_nature, pin_decision, context_file)
    t0 = time.perf_counter()
    rel = (precedes_oracle if oracle else precedes)(m, w, ctx)
    rows = {a: sorted(rel.predecessors(a)) for a in m.agents}
    tsv = ["agent\tpredecessors"] + [f"{a}\t{','.join(rows[a])}" for a in m.agents]
    _report("precedence", t0, {"query": {"w": w, "oracle": oracle}, "predecessors": rows},
            out_path, fmt, tsv=tsv)


@main.command()
@_add_options(_model_opts)
@click.option("--edges", "edges_text", default=None,
              help="Explicit DAG, e.g. 'A->B;B->C' (overrides the model's graph).")
@click.option("--y", type=_AGENTS, required=True)
@click.option("--z", type=_AGENTS, required=True)
@click.option("--w", type=_AGENTS, default="")
@_add_options(_out_opts)
def dsep(model_path, builtin_name, edges_text, y, z, w, out_path, fmt):
    """d-separation on a DAG; exit 0 separated, 1 not."""
    if edges_text is not None:
        pairs = []
        for chunk in filter(None, (c.strip() for c in edges_text.split(";"))):
            ends = tuple(s.strip() for s in chunk.split("->"))
            if len(ends) != 2 or not all(ends):
                raise FieldcoreError(f"bad edge {chunk!r}")
            pairs.append(ends)
        # nodes in order of first mention, edges first
        nodes = dict.fromkeys([x for edge in pairs for x in edge] + y + z + w)
        g = Dag(tuple(nodes), set(pairs))
    else:
        g = _model(model_path, builtin_name).meta.source_dag
        if g is None:
            raise FieldcoreError("model carries no source DAG; use --edges")
    t0 = time.perf_counter()
    verdict = d_separated(g, DsepQuery(frozenset(y), frozenset(z), frozenset(w)))
    _report("d-separation", t0, {
        "query": {"y": y, "z": z, "w": w},
        "verdict": "separated" if verdict else "not-separated",
    }, out_path, fmt, ok=verdict)


@main.command(name="solve")
@_add_options(_model_opts)
@click.option("--sample", "n_sample", type=_COUNT, default=0,
              help="Also solve this many sampled profiles.")
@click.option("--seed", type=_COUNT, default=0)
@_add_options(_out_opts)
def solve_cmd(model_path, builtin_name, n_sample, seed, out_path, fmt):
    """Solve the closed loop for the model's policies (and sampled ones)."""
    m = _model(model_path, builtin_name)
    t0 = time.perf_counter()
    runs = []
    if m.canonical_profile is not None:
        runs.append(("canonical", m.canonical_profile))
    runs.extend((f"sampled-{i}", p) for i, p in
                enumerate(sample_profiles(m, n_sample, seed)))
    if not runs:
        raise FieldcoreError("model has no policies; use --sample")
    results = []
    for name, profile in runs:
        sol = solve(m, profile)
        counts, freq = np.unique(sol.counts, return_counts=True)
        results.append({
            "profile": name,
            "solvable": sol.solvable,
            "multiplicity_histogram": {str(k): int(v) for k, v in zip(counts, freq)},
        })
    _report("solve", t0, {"results": results}, out_path, fmt)


@main.command()
@_add_options(_model_opts)
@click.option("--target", type=_AGENTS, required=True)
@click.option("--given", type=_AGENTS, default="")
@_add_options(_ctx_opts)
@_add_options(_out_opts)
def dist(model_path, builtin_name, target, given,
         pin_nature, pin_decision, context_file, out_path, fmt):
    """Exact conditional distribution table under the canonical policies."""
    m = _model(model_path, builtin_name)
    if m.canonical_profile is None or m.prior is None:
        raise FieldcoreError("dist needs a model with policies and a prior")
    ctx = _context_from_options(m, pin_nature, pin_decision, context_file)
    t0 = time.perf_counter()
    table = conditional(pushforward(m, m.canonical_profile),
                        CondQuery(_decisions(target), _decisions(given), ctx))
    g_names = [f"{k}:{a}" for k, a in table.given_coords]
    t_names = [f"{k}:{a}" for k, a in table.target_coords]
    tsv = ["\t".join(g_names + t_names + ["exact", "approx"])]
    rows_doc = []
    for g_key in sorted(table.rows):
        for t_key in sorted(table.rows[g_key]):
            p = table.rows[g_key][t_key]
            tsv.append("\t".join(list(g_key) + list(t_key) + [str(p), display_3dec(p)]))
            rows_doc.append({"given": list(g_key), "target": list(t_key),
                             "exact": str(p), "approx": display_3dec(p)})
    _report("conditional-table", t0, {
        "query": {"target": target, "given": given},
        "empty_context": table.empty_context,
        "rows": rows_doc,
    }, out_path, fmt, tsv=tsv)


@main.command()
@_add_options(_model_opts)
@click.option("--a", type=_AGENTS, required=True)
@click.option("--b", type=_AGENTS, required=True)
@click.option("--given", type=_AGENTS, default="")
@_add_options(_ctx_opts)
@_add_options(_out_opts)
def ci(model_path, builtin_name, a, b, given,
       pin_nature, pin_decision, context_file, out_path, fmt):
    """Exact conditional independence test; exit 0 independent, 1 not."""
    m = _model(model_path, builtin_name)
    if m.canonical_profile is None or m.prior is None:
        raise FieldcoreError("ci needs a model with policies and a prior")
    ctx = _context_from_options(m, pin_nature, pin_decision, context_file)
    t0 = time.perf_counter()
    res = cond_independent(pushforward(m, m.canonical_profile),
                           _decisions(a), _decisions(b), _decisions(given), ctx)
    _report("conditional-independence", t0, {
        "query": {"a": a, "b": b, "given": given},
        "verdict": "independent" if res.independent else "dependent",
        "witness": list(res.witness) if res.witness else None,
    }, out_path, fmt, ok=res.independent)


@main.command()
@_add_options(_model_opts)
@click.option("--y", type=_AGENTS, required=True)
@click.option("--z", type=_AGENTS, required=True)
@click.option("--w", type=_AGENTS, default="")
@click.option("--policy-trials", type=_COUNT, default=50)
@click.option("--prior-trials", type=_COUNT, default=3)
@click.option("--seed", type=_COUNT, default=0)
@_add_options(_ctx_opts)
@_add_options(_out_opts)
def docalc(model_path, builtin_name, y, z, w, policy_trials, prior_trials, seed,
           pin_nature, pin_decision, context_file, out_path, fmt):
    """Randomized exact verification of the one-rule do-calculus; exit 0
    iff separated and verified."""
    m = _model(model_path, builtin_name)
    ctx = _context_from_options(m, pin_nature, pin_decision, context_file)
    t0 = time.perf_counter()
    rep = verify_docalculus(m, y, z, w, ctx, policy_trials=policy_trials,
                            prior_trials=prior_trials, seed=seed)
    _report("do-calculus", t0, {
        "query": {"y": sorted(rep.y), "z": sorted(rep.z), "w": sorted(rep.w)},
        "verdict": "SEPARATED" if rep.separated else "NOT SEPARATED",
        "certificate": _cert_doc(rep.certificate),
        "closure_y": sorted(rep.closure_y),
        "closure_z": sorted(rep.closure_z),
        "checks_run": rep.checks_run,
        "failures": [
            {"kind": f.kind, "profile": f.profile_index, "prior": f.prior_index,
             "detail": [str(x) for x in f.detail]}
            for f in rep.failures
        ],
        "skipped_unsolvable_profiles": rep.skipped_unsolvable,
        "skipped_zero_mass_contexts": rep.skipped_zero_mass,
        "ci_violations_observed": rep.ci_violations_observed,
    }, out_path, fmt, ok=rep.separated and rep.ok)


@main.command(name="intervene")
@_add_options(_model_opts)
@click.option("--target", type=_AGENTS, required=True,
              help="Comma-separated target agents.")
@click.option("--switch-prob", default="1/2", help="Mass of switch value 1, as p/q.")
@click.option("--switch-agent", default="I")
@click.option("--out", "out_path", type=click.Path(), required=True)
def intervene_cmd(model_path, builtin_name, target, switch_prob, switch_agent, out_path):
    """Add an intervention switch (nature-only replacement fields)."""
    m = _model(model_path, builtin_name)
    repl = {
        z: InformationField.from_mask(m.space, z, CoordinateMask(frozenset({z}), frozenset()))
        for z in target
    }
    spec = InterventionSpec(tuple(target), repl, switch_prob=_parse_fraction(switch_prob),
                            switch_agent=switch_agent)
    _write(json.dumps(model_to_doc(intervene(m, spec)), indent=2) + "\n", out_path)


@main.command()
@_add_options(_model_opts)
@_add_options(_out_opts)
def causality(model_path, builtin_name, out_path, fmt):
    """Search for a causal configuration-ordering; exit 0 found, 1 none."""
    m = _model(model_path, builtin_name)
    t0 = time.perf_counter()
    phi = find_causal_ordering(m)
    doc = {"verdict": "causal ordering found" if phi is not None
           else "no causal ordering found (exhaustive)"}
    if phi is not None:
        doc["ordering_at_first_configuration"] = list(phi.ordering_at(0))
        doc["constant"] = bool(np.all(phi.orders == phi.orders[0]))
    _report("causality", t0, doc, out_path, fmt, ok=phi is not None)


@main.command()
@click.argument("scenario", type=click.Choice(
    ["table1", "fig2", "fig3", "fig4", "equivalence"]
))
@click.option("--seed", type=_COUNT, default=0)
@_add_options(_out_opts)
def reproduce(scenario, seed, out_path, fmt):
    """Golden scenarios; exit 0 iff every compared value matches."""
    t0 = time.perf_counter()
    runner = {
        "table1": _reproduce_table1,
        "fig2": _reproduce_fig2,
        "fig3": _reproduce_fig3,
        "fig4": _reproduce_fig4,
        "equivalence": lambda: _reproduce_equivalence(seed),
    }[scenario]
    passed, doc = runner()
    _report(f"reproduce-{scenario}", t0, {**doc, "verdict": "pass" if passed else "FAIL"},
            out_path, fmt, ok=passed)


def _reproduce_table1():
    res = reproduce_table1()

    def rows(table):
        return [
            {"key": list(r.key), "shown": list(r.shown), "expected": list(r.expected),
             "exact": [str(v) for v in r.exact]}
            for r in table
        ]

    return res.passed, {
        "cells_compared": 2 * (len(res.rows_a) + len(res.rows_b)),
        "columns_exactly_equal": res.columns_a_exactly_equal,
        "row_b_01_differs": res.row_b_01_differs,
        "table_a": rows(res.rows_a),
        "table_b": rows(res.rows_b),
    }


def _reproduce_fig2():
    m = builtin("kuh")
    cl1 = topo_closure(m, {"Y1", "W"}, {"W"})
    cl2 = topo_closure(m, {"Y2"}, {"W"})
    cert = topologically_separated(m, {"Y1"}, {"Y2"}, {"W"})
    dsep_ok = d_separated(m.meta.source_dag, DsepQuery({"Y1"}, {"Y2"}, {"W"}))
    passed = (
        cl1 == frozenset({"Y1", "W", "X3"})
        and cl2 == frozenset({"Y2"})
        and not (cl1 & cl2)
        and cert is not None
        and dsep_ok
    )
    return passed, {
        "closure_y1_with_w": sorted(cl1),
        "closure_y2": sorted(cl2),
        "expected": {"closure_y1_with_w": ["W", "X3", "Y1"], "closure_y2": ["Y2"]},
        "search_certificate": _cert_doc(cert),
        "d_separated": dsep_ok,
        "provenance": m.meta.provenance,
    }


def _reproduce_fig3():
    m = builtin("jpcbh")
    cert = topologically_separated(m, {"X1"}, {"X2"}, {"Y1", "Y2"})
    expected_y = frozenset({"X1", "Y1", "xi1"})
    expected_z = frozenset({"X2", "Y2", "xi2"})
    passed = (
        cert is not None
        and cert.closure_y == expected_y
        and cert.closure_z == expected_z
        and cert.splitting.w_y == frozenset({"Y1"})
        and cert.splitting.w_z == frozenset({"Y2"})
    )
    return passed, {
        "certificate": _cert_doc(cert),
        "expected": {"closure_y": sorted(expected_y), "closure_z": sorted(expected_z)},
    }


def _reproduce_fig4():
    m = builtin("witsenhausen-xor")
    cert = topologically_separated(m, {"X3"}, {"X4"}, {"X0", "X1", "X2"})
    none_cert = topologically_separated(m, {"X3"}, {"X4"}, {"X0", "X1"})
    passed = (
        cert is not None
        and cert.splitting.w_y == frozenset({"X0"})
        and cert.splitting.w_z == frozenset({"X1", "X2"})
        and none_cert is None
    )
    return passed, {
        "certificate": _cert_doc(cert),
        "expected_splitting": {"w_y": ["X0"], "w_z": ["X1", "X2"]},
        "reduced_w_certificate": _cert_doc(none_cert),
    }


def _reproduce_equivalence(seed):
    reports = [
        equivalence_harness(100, 6, 0.2, seed=seed + 11),
        equivalence_harness(100, 6, 0.4, seed=seed + 12),
    ]
    passed = all(r.all_agree for r in reports)
    return passed, {
        "runs": [
            {"n_graphs": r.n_graphs, "n": r.n, "edge_prob": r.edge_prob,
             "queries": r.queries, "agreements": r.agreements,
             "disagreements": len(r.disagreements)}
            for r in reports
        ],
    }


if __name__ == "__main__":  # pragma: no cover
    main()
