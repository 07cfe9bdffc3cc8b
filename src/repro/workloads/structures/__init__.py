"""Traced data structures: real algorithms that emit address traces.

The Table III generators model each benchmark's *sharing statistics*;
the class here goes one step further for the structure those statistics
came from: a genuine red-black tree whose operations (insert, lookup,
value update) execute the real algorithm over heap-allocated nodes and
**emit the exact memory operations** a compiled implementation would
perform — key and pointer reads along search paths, pointer and colour
writes for links, recolourings and rotations.

Used by the structure-accurate vacation variant
(:class:`repro.workloads.vacation_tree.VacationTreeWorkload`) and directly
testable: the hypothesis suites assert the red-black invariants on the
same objects that produce the traces.
"""

from repro.workloads.structures.rbtree import TracedRbTree

__all__ = ["TracedRbTree"]
