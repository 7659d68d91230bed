#!/usr/bin/env python3
"""List polymorphic comparisons in the per-event and per-round library code.

    python3 tools/monomorphic.py [ROOT]

ROOT defaults to the current directory (the repository root), which
must hold a finished ``dune build``: the script reads the native
objects of lib/prelude, lib/graph, lib/core, lib/engine,
lib/heuristics, lib/baselines, lib/underlay, lib/async, lib/dht,
lib/dynamics, lib/obs and lib/coding under ``_build/default``, the
libraries every synchronous round and every async, chaos and DHT event
runs through.

An OCaml comparison whose operands the compiler cannot type as int,
float, string or another immediate compiles to a C call into the
runtime's generic compare, which walks both values' tags (``x < y``
with ``x`` unannotated in a polymorphic helper, ``compare`` on a
tuple, ``=`` on a record or an option).  Stdlib's ``min`` and ``max``
are polymorphic functions and always take that path.  Each such call
costs about ten int compares, so one in a per-event helper is a
measurable share of the event.  The standard library's ``List.mem``,
``List.assoc`` and ``List.mem_assoc`` run that same generic compare
on every element they pass, inside Stdlib where no relocation of
ours shows it; ``Order.mem_int`` is the int membership test.

For every object the script runs ``objdump -dr -l`` and reports each
relocation to ``caml_compare``, ``caml_equal``, ``caml_notequal``,
``caml_lessthan``, ``caml_lessequal``, ``caml_greaterthan`` or
``caml_greaterequal``, each direct call to ``Stdlib.compare``,
``Stdlib.min`` or ``Stdlib.max``, and each load of ``Stdlib.min`` or
``Stdlib.max`` as a closure from the Stdlib module block (their field
offsets below are those of OCaml 5.1 on x86-64, the compiler CI pins),
and each direct call to ``List.mem``, ``List.assoc`` or
``List.mem_assoc``.
A site is printed as ``lib/DIR/FILE.ml:LINE: Module.function: callee``.

ALLOW names functions whose sites run a bounded number of times per
run, each with the reason; their sites are not reported.  The script
exits 1 if any site is reported or an ALLOW entry matches no site or
gives no reason, 2 if objdump or the objects are missing, and 0
otherwise.  Standard library only.
"""

import glob
import os
import re
import subprocess
import sys

DIRS = ("prelude", "graph", "core", "engine", "heuristics", "baselines",
        "underlay", "async", "dht", "dynamics", "obs", "coding")

# "Module.function" (no numeric suffix) -> why it runs once per run
ALLOW = {
    "Runtime.run_inner": "the set-up of Runtime.run compares the profile "
                         "and adversary records with Net.lockstep and "
                         "Net.no_adversary once per run",
    "Net.create_inner": "Net.create compares the adversary record with "
                        "Net.no_adversary once per network",
    "Metrics.histogram": "re-registering a histogram compares its bucket "
                         "edges once per name and run (Sim.create, "
                         "Engine.run)",
}

PRIMITIVES = {"caml_compare", "caml_equal", "caml_notequal", "caml_lessthan",
              "caml_lessequal", "caml_greaterthan", "caml_greaterequal"}
STDLIB_CALL = re.compile(r"camlStdlib\.(compare|min|max)_\d+$")
LIST_CALL = re.compile(r"camlStdlib__List\.(mem|assoc|mem_assoc)_\d+$")
# byte offset of a field in the Stdlib module block -> its value
STDLIB_FIELDS = {0x78: "Stdlib.min", 0x80: "Stdlib.max"}

FUNCTION = re.compile(r"^[0-9a-f]+ <(.+)>:$")
LINE = re.compile(r"^\S*?(lib/\S+\.ml):(\d+)")
RELOC = re.compile(r"^\s+[0-9a-f]+: R_\S+\s+(\S+?)(?:[+-]0x[0-9a-f]+)?$")
FIELD_LOAD = re.compile(r"^\s+[0-9a-f]+:\s+mov\s+0x([0-9a-f]+)\(%\w+\),")
INSN = re.compile(r"^\s+[0-9a-f]+:\s")


def function_name(symbol):
    """``camlOcd_dht__Node.owner_index_1130`` -> ``Node.owner_index_1130``."""
    module, _, fn = symbol.partition(".")
    return "%s.%s" % (module.split("__")[-1], fn)


def allow_key(fn):
    """``Node.owner_index_1130`` -> ``Node.owner_index``."""
    return re.sub(r"_\d+$", "", fn)


def sites(obj):
    """(source, function, callee) for every polymorphic-compare site
    in the native object [obj]."""
    listing = subprocess.run(["objdump", "-dr", "-l", "--no-show-raw-insn",
                              obj], stdout=subprocess.PIPE, text=True,
                             check=True).stdout
    found = []
    fn, where, block_load = None, "?", False
    for line in listing.splitlines():
        m = FUNCTION.match(line)
        if m:
            fn, where = function_name(m.group(1)), "?"
            continue
        m = LINE.match(line)
        if m:
            where = "%s:%s" % m.groups()
            continue
        m = RELOC.match(line)
        if m:
            target = m.group(1)
            block_load = target == "camlStdlib"
            call = STDLIB_CALL.match(target)
            list_call = LIST_CALL.match(target)
            if target in PRIMITIVES:
                found.append((where, fn, target))
            elif call:
                found.append((where, fn, "Stdlib." + call.group(1)))
            elif list_call:
                found.append((where, fn, "List." + list_call.group(1)))
            continue
        if block_load and INSN.match(line):
            m = FIELD_LOAD.match(line)
            if m and int(m.group(1), 16) in STDLIB_FIELDS:
                found.append((where, fn, STDLIB_FIELDS[int(m.group(1), 16)]
                              + " (closure)"))
            block_load = False
    return found


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    objs = sorted(o for d in DIRS for o in glob.glob(os.path.join(
        root, "_build", "default", "lib", d, ".*.objs", "native", "*.o")))
    if not objs:
        print("monomorphic: no native objects under %s/_build/default/lib; "
              "run dune build first" % root, file=sys.stderr)
        return 2
    try:
        found = [s for o in objs for s in sites(o)]
    except (OSError, subprocess.CalledProcessError) as e:
        print("monomorphic: objdump failed: %s" % e, file=sys.stderr)
        return 2
    reported = [s for s in found if allow_key(s[1]) not in ALLOW]
    line_order = lambda s: (s[0].partition(":")[0],
                            int(s[0].partition(":")[2] or 0), s[1], s[2])
    for where, fn, callee in sorted(reported, key=line_order):
        print("%s: %s: %s" % (where, fn, callee))
    stale = sorted(set(ALLOW) - {allow_key(fn) for _, fn, _ in found})
    for fn in stale:
        print("ALLOW entry %s matches no site" % fn)
    unexplained = sorted(fn for fn, why in ALLOW.items() if not why.strip())
    for fn in unexplained:
        print("ALLOW entry %s gives no reason" % fn)
    print("%d polymorphic-compare sites in %d functions (%d allowed)"
          % (len(reported), len({fn for _, fn, _ in reported}),
             len(found) - len(reported)), file=sys.stderr)
    return 1 if reported or stale or unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
