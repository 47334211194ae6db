"""Registry and cross-file exhaustiveness rules.

The ported rules (scenario-op-registry, engine-options-registry,
wire-format-version, metric-name-registry) keep their v1 contracts but now
resolve declarations through the IR: enumerators come from parsed enum
bodies, fields from parsed class members, wire writers from function
signatures — so a `case OpKind::kX` inside a string literal no longer
counts as handling the op, and a field declared across multiple lines is
still seen.

The matrix rules (scenario-op-matrix, options-serialize-matrix,
metric-names-referenced) are the cross-file exhaustiveness checks: every
chaos op must also be *emittable* by the generator, every serialized
struct field must round-trip through both serialize and parse, and every
registered metric name must actually be referenced somewhere.
"""

import re

from ..lexer import ID, STR
from ..model import Violation
from .common import enum_refs, enum_refs_in_range, function_raw_text, ids, \
    word_re


def _opkind_enum(f):
    for e in f.model.enums:
        if e.name == "OpKind" and e.scoped:
            return e
    return None


def _has_case_opkind(g):
    toks = g.tokens
    for i in range(len(toks) - 2):
        if toks[i].text == "case" and toks[i + 1].text == "OpKind" and \
                toks[i + 2].text == "::":
            return True
    return False


def rule_scenario_op_registry(f, ctx):
    """Every OpKind enumerator must be handled by the trace codec
    (op_kind_name) and by the ScenarioRunner dispatch — adding a chaos op
    without wiring replay or execution breaks trace replayability.
    Enumerators come from the parsed enum body and handling is checked at
    token level, so literals and comments can neither hide nor fake a
    case."""
    enum = _opkind_enum(f)
    if enum is None:
        return []
    codec = [g for g in ctx.files
             if "op_kind_name" in ids(g) and _has_case_opkind(g)]
    runner = [g for g in ctx.files
              if "ScenarioRunner" in ids(g) and enum_refs(g, "OpKind")]
    out = []
    for name, line in enum.enumerators:
        if codec and not any(name in enum_refs(g, "OpKind") for g in codec):
            out.append(Violation(
                f.path, line, "scenario-op-registry",
                f"OpKind::{name} is not handled where op_kind_name is "
                "defined: the op cannot round-trip through trace files"))
        if runner and not any(name in enum_refs(g, "OpKind") for g in runner):
            out.append(Violation(
                f.path, line, "scenario-op-registry",
                f"OpKind::{name} is not handled by ScenarioRunner: the op "
                "would parse but never execute"))
    return out


def _from_seed_bodies(ctx):
    bodies = []
    for g in ctx.files:
        for fn in g.model.functions:
            if fn.name == "from_seed":
                bodies.append((g, fn))
    return bodies


def rule_scenario_op_matrix(f, ctx):
    """Exhaustiveness matrix leg two: every OpKind enumerator must also be
    *emitted* by the scenario generator (from_seed). Dispatch coverage
    alone (scenario-op-registry) lets an op rot: handled everywhere but
    generated never, so no corpus seed, chaos sweep, or fuzz run ever
    exercises it. The third leg — every op covered by >=1 corpus seed —
    needs seed expansion and lives in the C++ test CorpusOpCoverage."""
    enum = _opkind_enum(f)
    if enum is None:
        return []
    bodies = _from_seed_bodies(ctx)
    if not bodies:
        return []
    emitted = set()
    for g, fn in bodies:
        emitted |= enum_refs_in_range(g, "OpKind", fn.body[0], fn.body[1] + 1)
    out = []
    for name, line in enum.enumerators:
        if name not in emitted:
            out.append(Violation(
                f.path, line, "scenario-op-matrix",
                f"OpKind::{name} is never emitted by from_seed: the op is "
                "dispatchable but unreachable from any generated scenario, "
                "so nothing ever tests it — teach from_seed to emit it (or "
                "retire the op)"))
    return out


_OPTIONS_STRUCTS = ("EngineOptions",)


def rule_engine_options_registry(f, ctx):
    """Every EngineOptions field must be mentioned in
    DistributedRanking::validated() — with a range check, or a comment
    recording that any value is valid. New knobs require a decision, not a
    silent default. (Comment mentions count: registration is the point.)"""
    out = []
    for struct in _OPTIONS_STRUCTS:
        decls = [c for c in f.model.classes if c.name == struct]
        if not decls:
            continue
        validators = []
        for g in ctx.files:
            for fn in g.model.functions:
                if fn.name == "validated" and "EngineOptions" in fn.params_text:
                    validators.append(function_raw_text(g, fn))
        if not validators:
            continue
        for c in decls:
            for m in c.members:
                if not any(word_re(m.name).search(v) for v in validators):
                    out.append(Violation(
                        f.path, m.line, "engine-options-registry",
                        f"{struct}.{m.name} is not registered in "
                        "DistributedRanking::validated(): add a range check, "
                        "or a comment there recording that any value is "
                        "valid"))
    return out


def _serializes_wire(fn):
    if fn.name != "serialize" and not fn.name.startswith(("save_", "write_")):
        return False
    params = fn.params_text
    return "ostream" in params and "&" in params


_VERSION_RE = re.compile(r"\bv\d+\b")


def rule_wire_format_version(f, ctx):
    """A function writing a wire format (serialize/save_*/write_* taking a
    std::ostream&) must live in a file carrying a versioned format header
    literal ("... v1 ..."), so readers can reject foreign or future data
    instead of misparsing it. The version must be a *string literal* —
    a `v1` in a comment no longer satisfies the check."""
    writers = [fn for fn in f.model.functions if _serializes_wire(fn)]
    if not writers:
        return []
    has_version = any(t.kind == STR and _VERSION_RE.search(t.text)
                      for t in f.tokens)
    if has_version:
        return []
    return [Violation(
        f.path, fn.line, "wire-format-version",
        f"'{fn.name}' writes a wire format but the file has no version "
        "literal (e.g. \"# p2prank <format> v1\"): emit a versioned header "
        "the loader validates") for fn in writers]


METRIC_FNS = {"counter", "counter_unstable", "gauge", "log2_histogram",
              "linear_histogram", "instant", "complete"}


def rule_metric_name_registry(f, ctx):
    """Metric and trace names are API: snapshot keys and trace event names
    are consumed by dashboards and diffed across runs, so the set of names
    must be a single reviewable registry (src/obs/metric_names.hpp). A
    string literal at a metric/trace call site bypasses that registry."""
    out = []
    toks = f.tokens
    for i in range(len(toks) - 2):
        if toks[i].kind == ID and toks[i].text in METRIC_FNS and \
                toks[i + 1].text == "(" and toks[i + 2].kind == STR:
            lit = toks[i + 2].text.strip('"')
            out.append(Violation(
                f.path, toks[i].line, "metric-name-registry",
                f'string literal "{lit}" names a {toks[i].text}() '
                "metric/trace: pass an obs::names::k* constant from "
                "src/obs/metric_names.hpp so the name set stays a single "
                "reviewable registry"))
    return out


_KCONST_RE = re.compile(r"k[A-Z]\w*")


def _name_constants(f):
    """File-scope string_view constants named kLikeThis: the metric-name
    registry entries (and any sibling name registries)."""
    return [d for d in f.model.var_decls
            if d.scope == "file" and "string_view" in d.type_text
            and _KCONST_RE.fullmatch(d.name)]


def rule_metric_names_referenced(ctx, scope="src/"):
    """Exhaustiveness matrix over the metric-name registry: every
    registered k* string_view constant must be referenced by at least one
    call site. metric-name-registry forces names *into* the registry; this
    closes the loop so the registry cannot silently accrete dead names
    whose dashboards watch a metric nothing emits."""
    out = []
    for f in ctx.files:
        if scope and not f.scoped_path.startswith(scope):
            continue
        consts = _name_constants(f)
        if not consts:
            continue
        for d in consts:
            own = sum(1 for t in f.tokens
                      if t.kind == ID and t.text == d.name)
            used = own > 1 or any(
                d.name in ids(g) for g in ctx.files if g is not f)
            if not used:
                out.append(Violation(
                    f.path, d.line, "metric-names-referenced",
                    f"registered name constant '{d.name}' is never "
                    "referenced: no call site emits this metric/trace, so "
                    "anything watching the name sees silence — wire it up "
                    "or delete the registration"))
    return out


def rule_options_serialize_matrix(f, ctx):
    """Round-trip matrix: for any struct declaring both serialize() and
    parse(), every member must appear in *both* implementations (comments
    count as explicit waivers). A field added to the struct but not to the
    codec silently drops state across save/load — the classic asymmetric
    bug where serialize writes it, parse defaults it, and replay
    diverges."""
    out = []
    for c in f.model.classes:
        method_names = {n for n, _ in c.methods}
        if not {"serialize", "parse"} <= method_names:
            continue
        ser_texts, par_texts = [], []
        for g in ctx.files:
            for fn in g.model.functions:
                if fn.cls != c.name:
                    continue
                if fn.name == "serialize":
                    ser_texts.append(function_raw_text(g, fn))
                elif fn.name == "parse":
                    par_texts.append(function_raw_text(g, fn))
        if not ser_texts or not par_texts:
            continue  # declarations only; nothing to check against
        for m in c.members:
            pat = word_re(m.name)
            in_ser = any(pat.search(t) for t in ser_texts)
            in_par = any(pat.search(t) for t in par_texts)
            if in_ser and in_par:
                continue
            missing = []
            if not in_ser:
                missing.append("serialize")
            if not in_par:
                missing.append("parse")
            out.append(Violation(
                f.path, m.line, "options-serialize-matrix",
                f"{c.name}.{m.name} does not round-trip: missing from "
                f"{' and '.join(missing)}() — a saved {c.name} silently "
                "drops or defaults this field on reload; serialize it, "
                "parse it, or record the waiver in a comment in both"))
    return out
