"""R013: Rng state copies are confined to the sanctioned fork point.

Every Markov chain owns one random stream, and byte-identical draws
across execution policies (tests/determinism_harness.hpp) depend on no
two consumers ever replaying the same draws. src/support/rng.hpp
therefore offers exactly one way to duplicate generator state:
`fork()`, which returns a jumped, independent stream with no
Box-Muller spare. An ad-hoc copy-construction (`Rng clone = rng;`)
silently clones the stream — spare included — so two consumers draw
the same numbers. Call `fork()` instead; genuinely intentional
snapshots (e.g. checkpoint/restore) carry a waiver.

The check is syntactic: a declaration `Rng name = expr;` whose
initializer contains no call (a call is how the fork point is
reached), or a direct copy-construction `Rng name(other)` /
`Rng name{other}` from something rng-named. Pass-by-value `Rng`
parameters are not flagged — their arguments are produced by fork()
at the call site.
"""

from __future__ import annotations

import re

from ..engine import rule
from ..source import grep_rule, in_dirs

# `Rng clone = rng;` — copy-init whose right-hand side has no
# parentheses (the sanctioned fork is a call, so a paren-free
# initializer can only be a raw state copy).
R013_COPY_INIT = re.compile(r"\bRng\s+\w+\s*=\s*[^;()=]*[A-Za-z_]\w*\s*;")

# `Rng clone(rng);` / `Rng clone{rng};` — direct copy-construction
# from an rng-named object.
R013_CTOR_COPY = re.compile(
    r"\bRng\s+\w+\s*[({]\s*\*?\s*[\w.>-]*[rR]ng_?\w*\s*[)}]")

R013_ALLOWED = {"src/support/rng.hpp", "src/support/rng.cpp"}


@rule("R013", "Rng state copies confined to the fork point in "
              "src/support/rng.hpp (fork())")
def rule_r013(files, findings, _ctx):
    for sf in files:
        if not in_dirs(sf.relpath, "src") or sf.relpath in R013_ALLOWED:
            continue
        for pat in (R013_COPY_INIT, R013_CTOR_COPY):
            grep_rule(sf, pat, "R013",
                      "raw Rng state copy; duplicate generator state "
                      "only through Rng::fork() (src/support/rng.hpp) "
                      "so no two consumers replay the same draws",
                      findings)
