"""Optional clang AST backend.

When clang++ is on PATH, declaration-layer facts for the registry rules
(OpKind enumerators, EngineOptions fields, members of serialize/parse
structs) are cross-checked against a real compiler AST
(`clang++ -Xclang -ast-dump -ast-dump-filter=<decl>`): any enumerator or
field the builtin parser missed is spliced into the IR, so macro tricks or
exotic declaration syntax cannot hide a registry entry.

When clang is absent — or errors in any way — the builtin parser's IR
stands unmodified and the engine prints a one-line notice. The wall never
silently skips: the builtin layer covers every rule on its own; clang only
hardens the declaration tables. Every clang interaction is therefore
wrapped so that no environment (missing headers, old clang, weird locale)
can turn the backend into a lint failure.
"""

import re
import shutil
import subprocess


def clang_path():
    return shutil.which("clang++")


# Declarations worth a compiler's opinion: the registry/matrix inputs.
_INTERESTING = ("OpKind", "EngineOptions")

_ENUMERATOR_RE = re.compile(
    r"EnumConstantDecl\b.*?(?:<[^>]*>)?\s*"
    r"(?:line:(\d+):\d+|col:\d+)\s+(?:used\s+)?(\w+)\s+'")
_FIELD_RE = re.compile(
    r"FieldDecl\b.*?(?:<[^>]*>)?\s*"
    r"(?:line:(\d+):\d+|col:\d+)\s+(?:referenced\s+)?(\w+)\s+'")


def _dump_filtered(clang, path, root, decl_name):
    """Textual AST dump restricted to one declaration name. Returns the
    dump text or None on any failure."""
    cmd = [clang, "-std=c++17", "-fsyntax-only", "-w",
           f"-I{root}/src", f"-I{root}",
           "-Xclang", "-ast-dump",
           "-Xclang", f"-ast-dump-filter={decl_name}",
           str(path)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.SubprocessError):
        return None
    # clang exits 0 even with the filter matching nothing; a compile error
    # (missing include etc.) still often produces a usable partial dump,
    # but be conservative: require some dump output.
    if not proc.stdout.strip():
        return None
    return proc.stdout


def _interesting_decls(f):
    names = []
    for e in f.model.enums:
        if e.name in _INTERESTING:
            names.append(("enum", e))
    for c in f.model.classes:
        method_names = {n for n, _ in c.methods}
        if c.name in _INTERESTING or {"serialize", "parse"} <= method_names:
            names.append(("class", c))
    return names


def augment_file(f, root, real_path, clang=None):
    """Cross-check f's registry-relevant declarations against clang's AST.
    Returns True if clang ran and the IR was (possibly) hardened."""
    clang = clang or clang_path()
    if clang is None:
        return False
    ran = False
    try:
        for kind, decl in _interesting_decls(f):
            dump = _dump_filtered(clang, real_path, root, decl.name)
            if dump is None:
                continue
            ran = True
            if kind == "enum":
                known = {n for n, _ in decl.enumerators}
                for m in _ENUMERATOR_RE.finditer(dump):
                    line, name = m.groups()
                    if name not in known:
                        decl.enumerators.append(
                            (name, int(line) if line else decl.line))
                        known.add(name)
            else:
                known = {m.name for m in decl.members}
                for m in _FIELD_RE.finditer(dump):
                    line, name = m.groups()
                    if name not in known:
                        from .model import Member
                        decl.members.append(Member(
                            name, "", int(line) if line else decl.line))
                        known.add(name)
        if ran:
            f.model.backend = "clang+builtin"
    except Exception:  # noqa: BLE001 — backend must never break the lint
        return False
    return ran
