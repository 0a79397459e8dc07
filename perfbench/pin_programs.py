"""Pin the pool of fuzz programs that short-programs draws from.

    python3 perfbench/pin_programs.py

For each bias profile and each of ``SIZES`` program sizes
(``suite.sized_profile``), draws generator seeds from a fixed sequence
and keeps the first ``CHOICES`` whose program runs to completion under
every model with the same final registers and memory as
``FunctionalCpu``: the check the benchmark makes.  Programs that fail it
are turned away and listed in the file with their failures.  Writes
``perfbench/programs.json``.  Re-pin in a change that alters the fuzz
generator, and say so in that change.
"""

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402
import suite  # noqa: E402
from repro.fuzz.generator import generator_version  # noqa: E402

# Size indices per profile: more than the rounds a run reaches on the
# reference host (about 30), so every round of a run has its own size.
SIZES = 64
# Generator seeds kept per (profile, size): the benchmark seed picks one.
CHOICES = 4


def main() -> int:
    checker = suite.ShortPrograms(0, None, spans.Timer(), pool={})
    seeds, turned_away = {}, []
    for name in suite.FUZZ_PROFILES:
        rows = seeds[name] = []
        for size in range(SIZES):
            profile = suite.sized_profile(name, size)
            candidates = random.Random("perfbench-%s-%d" % (name, size))
            kept = []
            while len(kept) < CHOICES:
                gen_seed = candidates.getrandbits(32)
                failures = checker.program(-1, profile, gen_seed,
                                           counted=False)
                if failures:
                    turned_away.append({"profile": name, "size": size,
                                        "seed": gen_seed,
                                        "failures": failures})
                    print("turned away: %s" % failures[0], flush=True)
                else:
                    kept.append(gen_seed)
            rows.append(kept)
        print("%s: %d sizes x %d programs" % (name, SIZES, CHOICES),
              flush=True)
    with open(suite.PROGRAMS, "w") as handle:
        json.dump({"generator_version": generator_version(),
                   "seeds": seeds, "turned_away": turned_away},
                  handle, indent=1)
        handle.write("\n")
    print("pinned %d programs, turned away %d, in %s"
          % (len(suite.FUZZ_PROFILES) * SIZES * CHOICES, len(turned_away),
             suite.PROGRAMS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
