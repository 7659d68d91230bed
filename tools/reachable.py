#!/usr/bin/env python3
"""List library modules that nothing outside the tests reaches.

    python3 tools/reachable.py [ROOT]

ROOT defaults to the current directory (the repository root).  Every
module of lib/*/ is a node; a file names a module when its source,
comments and string literals stripped, mentions it the way OCaml would
resolve it:

  * from a sibling module of the same library, as a bare capitalised
    name (``Pull.requests``) not itself qualified by another path;
  * from anywhere else, qualified by the library's module
    (``Ocd_graph.Digraph``), through a ``module X = Ocd_graph`` alias,
    or bare after ``open Ocd_graph`` / ``include Ocd_graph``.

The roots are the sources of bin/, examples/ and perfbench/.  A module
is reachable when a root names it or a reachable module names it.  The
script prints every unreachable module, one per line as
``lib/DIR/NAME.ml``, and exits 1 if there is any, 0 otherwise.  Files
under test/ are not roots: a module only the tests call is unreachable.
The check is on module names, not values: a module that a reachable
module names passes even when the only export naming it is itself
called from test/ alone (Flood_optimal, named by
Flood_plan.sync_strategy, is one).  Standard library only.
"""

import glob
import os
import re
import sys

ROOTS = ("bin", "examples", "perfbench")
WORD = r"[A-Za-z0-9_']"
CHAR = re.compile(r"'(?:\\[^']{1,3}|[^\\'])'")


def strip(src):
    """OCaml source without comments (nested) or string literals."""
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
                i += 2 if src[i] == "\\" else 1
            i += 1
        elif depth:
            i += 1
        else:
            out.append(src[i])
            i += 1
    return "".join(out)


def library_name(directory):
    with open(os.path.join(directory, "dune")) as f:
        m = re.search(r"\(name\s+([a-z0-9_]+)\)", f.read())
    return m.group(1).capitalize() if m else None


def load(root):
    """Modules as {(dir, Name): [stripped sources]}, libraries by dir."""
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
            with open(ml) as f:
                modules[(directory, name)] = [strip(f.read())]
            mli = ml + "i"
            if os.path.exists(mli):
                with open(mli) as f:
                    modules[(directory, name)].append(strip(f.read()))
    return modules, libraries


def names(text, own_dir, target, libraries):
    """Does [text], a file of library [own_dir] (None outside lib/),
    name module [target] = (dir, Name)?"""
    directory, name = target
    lib = libraries[directory]
    if own_dir == directory:
        return re.search(r"(?<![.\w'])%s(?!%s)" % (name, WORD), text) is not None
    if name == lib:
        # the library's own main module (e.g. Ocd_obs)
        return re.search(r"(?<![.\w'])%s(?!%s)" % (lib, WORD), text) is not None
    if re.search(r"(?<![\w'])%s\s*\.\s*%s(?!%s)" % (lib, name, WORD), text):
        return True
    for alias in re.findall(r"\bmodule\s+([A-Z]%s*)\s*=\s*%s\b" % (WORD, lib), text):
        if re.search(r"(?<![.\w'])%s\s*\.\s*%s(?!%s)" % (alias, name, WORD), text):
            return True
    opened = re.search(r"\b(open|include)!?\s+%s(?!%s)|%s\s*\.\s*\(" % (lib, WORD, lib), text)
    return opened is not None and re.search(
        r"(?<![.\w'])%s(?!%s)" % (name, WORD), text) is not None


def unreachable(root):
    modules, libraries = load(root)
    root_texts = []
    for d in ROOTS:
        for path in sorted(glob.glob(os.path.join(root, d, "**", "*.ml"), recursive=True)):
            with open(path) as f:
                root_texts.append(strip(f.read()))
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
            if any(names(text, source[0], target, libraries) for text in modules[source]):
                reached.add(target)
                frontier.append(target)
    return sorted(t for t in modules if t not in reached)


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    if not os.path.isdir(os.path.join(root, "lib")):
        print("reachable: no lib/ under %s" % root, file=sys.stderr)
        return 2
    orphans = unreachable(root)
    for directory, name in orphans:
        print(os.path.relpath(os.path.join(directory, name.lower() + ".ml"), root))
    return 1 if orphans else 0


if __name__ == "__main__":
    sys.exit(main())
