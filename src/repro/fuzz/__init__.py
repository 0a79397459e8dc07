"""Differential fuzzing farm for the DMDP reproduction.

The correctness-at-scale layer: pathology-biased program generation
(:mod:`.generator`), a three-oracle differential check stack
(:mod:`.oracles`), deterministic delta-debugging minimization
(:mod:`.minimize`), self-contained replayable failure artifacts
(:mod:`.artifacts`), and the campaign driver riding the parallel
harness (:mod:`.campaign`).  ``repro fuzz`` is the CLI face.

Import each name from the module that defines it: the package imports
none of them, so a run that only generates programs or checks one never
loads the campaign, the minimiser or the artifact writer.
"""
