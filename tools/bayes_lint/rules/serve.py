"""R009: the serving layer must not own threads or pools."""

from __future__ import annotations

import re

from ..engine import rule
from ..source import grep_rule, in_dirs

R009_PAT = re.compile(
    r"\bnew\s+(?:\w+\s*::\s*)*ThreadPool\b"
    r"|\bmake_unique\s*<\s*(?:\w+\s*::\s*)*ThreadPool\b"
    r"|\bThreadPool\s+\w+\s*[({]")


@rule("R009", "src/serve/ uses the shared pool, never a private one")
def rule_r009(files, findings, _ctx):
    """The serving runtime's concurrency contract: submit/drain run on
    the coordinating thread and chains fan out through the process-shared
    support::sharedPool. A private pool inside src/serve/ would nest
    pools, break the no-nested-wait rule, and tear worker threads up and
    down per request."""
    for sf in files:
        if not in_dirs(sf.relpath, "src/serve"):
            continue
        grep_rule(sf, R009_PAT, "R009",
                  "serve code must not own threads: use the shared pool "
                  "via samplers::ExecutionPolicy::pool / "
                  "support::sharedPool, never a private ThreadPool",
                  findings)
