#!/usr/bin/env python3
"""List library modules and exported values that nothing outside the
tests reaches.

    python3 tools/reachable.py [ROOT]

ROOT defaults to the current directory (the repository root).

Modules.  Every module of lib/*/ is a node; a file names a module when
its source, comments and string literals stripped, mentions it the way
OCaml would resolve it:

  * from a sibling module of the same library, as a bare capitalised
    name (``Pull.requests``) not itself qualified by another path;
  * from anywhere else, qualified by the library's module
    (``Ocd_graph.Digraph``), through a ``module X = Ocd_graph`` alias,
    or bare after ``open Ocd_graph`` / ``include Ocd_graph``.

The roots are the sources of bin/, examples/ and perfbench/.  A module
is reachable when a root names it or a reachable module names it.

Values.  Every ``val`` of a lib/*/*.mli, those of sub-module
signatures (``module Rows : sig ... end``) included, must be named by a
root or by the .ml of a reachable module.  Its own module's .ml counts,
except the value's own definition: the ``let``/``and`` binding and the
lines indented under it.  A file names ``Bitset.union`` when it writes
the value behind a path that denotes its module, resolved as for
modules and extended through ``module B = Ocd_prelude.Bitset``-style
aliases (``let module`` too) and sub-module paths
(``Ocd_graph.Digraph.View.succ``), or bare once that path is opened by
``open``, ``include``, ``let open`` or a local ``Bitset.( ... )``.  A
module passed whole to a functor (``Hashtbl.Make (Int_tab.Key)``)
names every value it exports.

Files under test/ are not roots: a module or value that only the tests
call is reported.  ALLOW names the values that another test relies on
(an oracle, a lockstep twin, shared scaffolding), each with that test.
The script prints every unreachable module as ``lib/DIR/NAME.ml`` and
every unnamed value outside ALLOW as ``lib/DIR/NAME.mli: Module.value``,
and exits 1 if it prints either or if an ALLOW entry matches no
unnamed value or gives no reason, 2 if ROOT has no lib/, and 0
otherwise.  Standard library only.
"""

import glob
import os
import re
import sys

ROOTS = ("bin", "examples", "perfbench")
WORD = r"[A-Za-z0-9_']"
CHAR = re.compile(r"'(?:\\[^']{1,3}|[^\\'])'")

# "Library.Module.value" -> the test that calls it, and why it stays
ALLOW = {
    "Ocd_async.Flood_plan.sync_strategy":
        "test_async \"flood twin\": flood-plan's synchronous lockstep twin",
    "Ocd_core.Codec.instance_of_string":
        "test_extensions \"codec roundtrips random instances & schedules\", "
        "test_integration pipeline round trip: the reader that `ocd "
        "export`'s writer is checked against",
    "Ocd_core.Codec.schedule_of_string":
        "test_extensions \"codec roundtrips random instances & schedules\", "
        "test_integration pipeline round trip: the reader that `ocd "
        "export`'s writer is checked against",
    "Ocd_bench.Shrink.of_string":
        "test_chaos \"artifact roundtrip\": the reader that the reproducer "
        "`ocd chaos --shrink` writes is checked against",
    "Ocd_prelude.Bitset.subset":
        "test_core, test_timeline, test_integration: set inclusion in "
        "the validate and completion-time oracles",
    "Ocd_prelude.Bitset.of_list":
        "test_prelude, test_async, test_baselines: builds the expected "
        "sets of several suites",
    "Ocd_prelude.Order.sort_by":
        "test_async pull-core and test_heuristics local oracles: the "
        "rarity ranking written as a plain stable sort",
    "Ocd_prelude.Int_tab.mem":
        "test_prelude \"int_tab incr = hashtbl model\": membership "
        "against the Hashtbl model",
    "Ocd_prelude.Int_tab.length":
        "test_prelude \"int_tab incr = hashtbl model\": size against the "
        "Hashtbl model",
    "Ocd_prelude.Prng.bits64":
        "test_prelude determinism and Int64 SplitMix64 oracle: the raw "
        "stream every draw helper is built on",
    "Ocd_prelude.Prng.bool":
        "test_core \"validator catches every mutation category\", "
        "test_obs \"causal log = list-of-records oracle\": coin flips "
        "of their generators",
    "Ocd_prelude.Prng.pick":
        "test_core \"validator catches every mutation category\": draws "
        "the arc and token a mutation corrupts",
    "Ocd_graph.Digraph.View.to_array":
        "test_graph and test_topology CSR-view properties, test_core "
        "mutations: a row as (vertex, capacity) pairs",
    "Ocd_topology.Topology.all_kinds":
        "test_core \"engine schedules: bound = reverse-BFS oracle\": "
        "draws a topology kind per seed",
    "Ocd_engine.Strategy.stateless":
        "test_engine, test_timeline, test_bench: builds the scripted "
        "strategies of several suites",
}


def strip(src):
    """OCaml source without comments (nested) or string literals; the
    newlines inside them are kept, so lines and indentation stay."""
    out = []
    i, depth, n = 0, 0, len(src)
    while i < n:
        if src.startswith("(*", i):
            depth += 1
            i += 2
        elif depth and src.startswith("*)", i):
            depth -= 1
            i += 2
        elif src[i] == "'" and CHAR.match(src, i):
            i = CHAR.match(src, i).end()
        elif src[i] == '"':
            # strings are skipped inside comments too, as OCaml does
            i += 1
            while i < n and src[i] != '"':
                if src[i] == "\n":
                    out.append("\n")
                i += 2 if src[i] == "\\" else 1
            i += 1
        elif depth:
            if src[i] == "\n":
                out.append("\n")
            i += 1
        else:
            out.append(src[i])
            i += 1
    return "".join(out)


def library_name(directory):
    with open(os.path.join(directory, "dune")) as f:
        m = re.search(r"\(name\s+([a-z0-9_]+)\)", f.read())
    return m.group(1).capitalize() if m else None


def read(path):
    with open(path) as f:
        return strip(f.read())


def load(root):
    """Modules as {(dir, Name): [stripped .ml, stripped .mli or None]},
    libraries by dir."""
    modules, libraries = {}, {}
    for directory in sorted(glob.glob(os.path.join(root, "lib", "*"))):
        if not os.path.isfile(os.path.join(directory, "dune")):
            continue
        lib = library_name(directory)
        if lib is None:
            continue
        libraries[directory] = lib
        for ml in sorted(glob.glob(os.path.join(directory, "*.ml"))):
            name = os.path.basename(ml)[:-3].capitalize()
            mli = ml + "i"
            modules[(directory, name)] = [
                read(ml), read(mli) if os.path.exists(mli) else None]
    return modules, libraries


def bare(name):
    """[name] not qualified by a path and not part of a longer word."""
    return r"(?<![.\w'])%s(?!%s)" % (re.escape(name), WORD)


def names(text, own_dir, target, libraries):
    """Does [text], a file of library [own_dir] (None outside lib/),
    name module [target] = (dir, Name)?"""
    directory, name = target
    lib = libraries[directory]
    if own_dir == directory:
        return re.search(bare(name), text) is not None
    if name == lib:
        # the library's own main module (e.g. Ocd_obs)
        return re.search(bare(lib), text) is not None
    if re.search(r"(?<![\w'])%s\s*\.\s*%s(?!%s)" % (lib, name, WORD), text):
        return True
    for alias in re.findall(r"\bmodule\s+([A-Z]%s*)\s*=\s*%s\b" % (WORD, lib), text):
        if re.search(r"(?<![.\w'])%s\s*\.\s*%s(?!%s)" % (alias, name, WORD), text):
            return True
    opened = re.search(r"\b(open|include)!?\s+%s(?!%s)|%s\s*\.\s*\(" % (lib, WORD, lib), text)
    return opened is not None and re.search(bare(name), text) is not None


def reachable_modules(modules, libraries, root_texts):
    reached = set()
    frontier = [
        t for t in modules
        if any(names(text, None, t, libraries) for text in root_texts)
    ]
    reached.update(frontier)
    while frontier:
        source = frontier.pop()
        for target in modules:
            if target in reached or target == source:
                continue
            if any(names(text, source[0], target, libraries)
                   for text in modules[source] if text is not None):
                reached.add(target)
                frontier.append(target)
    return reached


SIG_TOKEN = re.compile(
    r"\bmodule\s+type\s+%s+\s*=\s*sig\b"
    r"|\bmodule\s+([A-Z]%s*)\s*:\s*sig\b"
    r"|\b(sig|struct|object|begin)\b|\b(end)\b"
    r"|\bval\s+([a-z_]%s*)" % (WORD, WORD, WORD))


def exported_values(mli):
    """[(sub-module path, value)] of every val in [mli], values of
    module-type definitions excepted."""
    values, stack = [], []
    for m in SIG_TOKEN.finditer(mli):
        sub, _, end, val = m.groups()
        if end:
            if stack:
                stack.pop()
        elif val:
            if None not in stack:
                values.append((tuple(stack), val))
        else:
            # a named sub-module signature, or a scope whose vals are
            # not exports (module type, object, functor argument)
            stack.append(sub)
    return values


def without_definition(ml, path, value):
    """[ml] minus the binding of [value] (in sub-module [path]): the
    ``let``/``and`` line and every following line indented deeper."""
    lines = ml.split("\n")
    start = 0
    for sub in path:
        for i in range(start, len(lines)):
            if re.match(r"\s*module\s+%s\b" % sub, lines[i]):
                start = i + 1
                break
    binding = re.compile(r"(\s*)(let|and)(\s+rec)?\s+%s(?!%s)"
                         % (re.escape(value), WORD))
    for i in range(start, len(lines)):
        m = binding.match(lines[i])
        if m:
            indent = len(m.group(1))
            j = i + 1
            while j < len(lines) and (not lines[j].strip() or
                                      len(lines[j]) - len(lines[j].lstrip()) > indent):
                j += 1
            return "\n".join(lines[:i] + lines[j:])
    return ml


def heads(text, own_dir, directory, name, path, libraries):
    """Regexes for the module paths in [text] that denote sub-module
    [path] of module [name]."""
    lib = libraries[directory]
    if own_dir == directory or name == lib:
        level = [bare(name)]
    else:
        level = [r"(?<![.\w'])%s\s*\.\s*%s(?!%s)" % (lib, name, WORD)]
        prefixes = [bare(lib)] + [
            bare(a) for a in re.findall(
                r"\bmodule\s+([A-Z]%s*)\s*=\s*%s(?!%s|\s*\.)" % (WORD, lib, WORD), text)]
        if any(re.search(r"\b(open|include)!?\s+%s(?!%s)|%s\s*\.\s*\(" % (p, WORD, p), text)
               for p in prefixes):
            level.append(bare(name))
        for p in prefixes[1:]:
            level.append(r"%s\s*\.\s*%s(?!%s)" % (p, name, WORD))
    for sub in (None,) + path:
        if sub is not None:
            level = [r"%s\s*\.\s*%s(?!%s)" % (h, sub, WORD) for h in level]
        # module X = <path>, let module X = <path> in
        for h in list(level):
            for alias in re.findall(r"\bmodule\s+([A-Z]%s*)\s*=\s*%s(?!\s*\.)" % (WORD, h), text):
                level.append(bare(alias))
    return level


_WORDS = {}


def words(text):
    """The identifiers of [text], memoised."""
    if text not in _WORDS:
        _WORDS[text] = set(re.findall(r"[A-Za-z_]%s*" % WORD, text))
    return _WORDS[text]


def names_value(text, own_dir, target, path, value, libraries):
    """Does [text], a .ml of library [own_dir] (None outside lib/),
    name [value] of sub-module [path] of module [target]?"""
    directory, name = target
    if value not in words(text):
        return False
    for h in heads(text, own_dir, directory, name, path, libraries):
        if re.search(r"%s\s*\.\s*%s(?!%s)" % (h, re.escape(value), WORD), text):
            return True
        if re.search(r"\b(open|include)!?\s+%s|%s\s*\.\s*\(" % (h, h), text) and \
                re.search(bare(value), text):
            return True
        # passed whole to a functor: F (M)
        if re.search(r"[A-Z][\w.]*\s*\(\s*%s\s*\)" % h, text):
            return True
    return False


def unnamed_values(modules, libraries, root_texts, reached):
    """[(mli path, Library.Module.value)] named by no root and no
    reachable module."""
    found = []
    for target in sorted(modules):
        directory, name = target
        ml, mli = modules[target]
        if mli is None:
            continue
        for path, value in exported_values(mli):
            own = without_definition(ml, path, value)
            if target in reached and (
                    re.search(bare(value), own) or
                    any(re.search(r"(?<![.\w'])%s\s*\.\s*%s(?!%s)"
                                  % (sub, re.escape(value), WORD), own)
                        for sub in path)):
                continue
            if any(names_value(text, None, target, path, value, libraries)
                   for text in root_texts):
                continue
            if any(names_value(modules[source][0], source[0], target, path,
                               value, libraries)
                   for source in sorted(reached) if source != target):
                continue
            found.append((os.path.join(directory, name.lower() + ".mli"),
                          ".".join((libraries[directory], name) + path + (value,))))
    return found


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    if not os.path.isdir(os.path.join(root, "lib")):
        print("reachable: no lib/ under %s" % root, file=sys.stderr)
        return 2
    modules, libraries = load(root)
    root_texts = [
        read(path) for d in ROOTS
        for path in sorted(glob.glob(os.path.join(root, d, "**", "*.ml"), recursive=True))
    ]
    reached = reachable_modules(modules, libraries, root_texts)
    orphans = sorted(t for t in modules if t not in reached)
    for directory, name in orphans:
        print(os.path.relpath(os.path.join(directory, name.lower() + ".ml"), root))
    unnamed = unnamed_values(modules, libraries, root_texts, reached)
    reported = [(mli, full) for mli, full in unnamed if full not in ALLOW]
    for mli, full in reported:
        print("%s: %s" % (os.path.relpath(mli, root), full.partition(".")[2]))
    stale = sorted(set(ALLOW) - {full for _, full in unnamed})
    for full in stale:
        print("ALLOW entry %s matches no unnamed value" % full)
    unexplained = sorted(full for full, why in ALLOW.items() if not why.strip())
    for full in unexplained:
        print("ALLOW entry %s gives no reason" % full)
    return 1 if orphans or reported or stale or unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
