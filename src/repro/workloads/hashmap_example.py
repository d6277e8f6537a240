"""The paper's Figure 1 motivating example, as a mini-JVM program.

``HashMapTest.main`` builds a hash map keyed once by a ``MyKey`` and once
by a plain ``Object``, then repeatedly calls ``runTest``, which performs
two ``HashMap.get`` calls.  Inside ``get``, the ``key.hashCode()`` virtual
call resolves to ``MyKey.hashCode`` for the first ``runTest`` call site
and ``Object.hashCode`` for the second:

* a **context-insensitive** profile of the ``hashCode`` site shows a 50/50
  target split (the paper's Figure 2b), so the inliner either guards in
  *both* implementations everywhere or inlines neither;
* a **depth-2 context-sensitive** profile (Figure 2c) shows each
  ``runTest`` call site resolving 100% to one implementation, so exactly
  the right target is inlined in each inlined copy of ``get``.

The module exposes the named call sites so tests and the Figure 2 bench
can assert the exact profile split.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.jvm.program import (Arg, Const, Let, Local, Loop, Mod, New,
                               Program, Return, StaticCall, VirtualCall,
                               Work)
from repro.workloads.builder import ProgramBuilder


class HashMapSites(NamedTuple):
    """The call sites the paper's discussion names."""

    cs1: int            # first map.get in runTest
    cs2: int            # second map.get in runTest
    hash_site: int      # key.hashCode() inside HashMap.get
    equals_site: int    # key.equals() inside HashMap.get
    run_site: int       # main's call to runTest


def build(iterations: int = 4000) -> "HashMapProgram":
    """Construct the Figure 1 program.

    ``iterations`` controls how many times ``main`` invokes ``runTest`` --
    enough iterations must elapse for the online system to sample, derive
    rules, and recompile.
    """
    b = ProgramBuilder("hashmap_example")

    b.cls("Object")
    b.cls("MyKey", superclass="Object")
    b.cls("Integer", superclass="Object")
    b.cls("HashMap", superclass="Object")
    b.cls("HashMapTest")

    # Object.hashCode / Object.equals -- small leaf methods.
    b.method("Object", "hashCode", [Work(10), Return(Const(7))], params=1)
    b.method("Object", "equals", [Work(8), Return(Const(0))], params=2)
    # MyKey overrides both.
    b.method("MyKey", "hashCode", [Work(10), Return(Const(22))], params=1)
    b.method("MyKey", "equals", [Work(8), Return(Const(1))], params=2)

    # Integer.intValue -- tiny, statically bindable (sole implementation).
    b.method("Integer", "intValue", [Work(3), Return(Const(1))], params=1)

    # HashMap.get(this, key): index = key.hashCode() % N; probe; maybe
    # key.equals(entry.key).  Medium-sized, so it is inlined into callers
    # only under profile direction.
    hash_site = b.site()
    equals_site = b.site()
    get_body = [
        Work(6),
        VirtualCall(hash_site, "hashCode", Arg(1), dst=0),
        Let(0, Mod(Local(0), Const(11))),
        Work(14),
        VirtualCall(equals_site, "equals", Arg(1), args=[Local(0)], dst=1),
        Work(6),
        Return(Local(1)),
    ]
    b.method("HashMap", "get", get_body, params=2, locals_=4)

    # HashMap.put -- executed twice during setup; medium, cold.
    b.method("HashMap", "put",
             [Work(30), Return(Const(0))], params=3)

    # runTest(k1, k2, map): two get calls whose key receiver class differs.
    cs1 = b.site()
    cs2 = b.site()
    run_body = [
        VirtualCall(cs1, "get", Arg(2), args=[Arg(0)], dst=0),
        Work(4),
        VirtualCall(cs2, "get", Arg(2), args=[Arg(1)], dst=1),
        Work(4),
        Return(Local(0)),
    ]
    b.static_method("HashMapTest", "runTest", run_body, params=3, locals_=4)

    # main: setup, then the hot loop.
    run_site = b.site()
    main_body = [
        New(0, "MyKey"),
        New(1, "Object"),
        New(2, "HashMap"),
        b.call("HashMap.put", args=[Local(2), Local(0), Const(1)]),
        b.call("HashMap.put", args=[Local(2), Local(1), Const(2)]),
        Loop(Const(iterations), 5, [
            StaticCall(run_site, "HashMapTest.runTest",
                       [Local(0), Local(1), Local(2)]),
            Work(2),
        ]),
        Return(Const(0)),
    ]
    b.static_method("HashMapTest", "main", main_body, params=0, locals_=8)
    b.entry("HashMapTest.main")

    program = b.build()
    sites = HashMapSites(cs1=cs1, cs2=cs2, hash_site=hash_site,
                         equals_site=equals_site, run_site=run_site)
    return HashMapProgram(program, sites)


class HashMapProgram(NamedTuple):
    """The built program plus its named call sites."""

    program: Program
    sites: HashMapSites
