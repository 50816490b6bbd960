// Fixture: R013 — Rng state copies outside the sanctioned fork point
// (fork() in src/support/rng.hpp).
#include "support/rng.hpp"

namespace fixture {
Rng& chainRng();

void chainStreams()
{
    Rng rng;
    Rng clone = rng;             // EXPECT: R013
    Rng clone2(rng);             // EXPECT: R013
    Rng clone3{rng};             // EXPECT: R013
    Rng fresh;                   // construction, not a copy: no finding
    Rng seeded(42);              // seeded construction: no finding
    Rng forked = rng.fork();     // sanctioned fork point: no finding
    Rng snapshot = rng;  // bayes-lint: allow(R013): fixture: checkpoint/restore snapshot
    (void)clone;
    (void)clone2;
    (void)clone3;
    (void)fresh;
    (void)seeded;
    (void)forked;
    (void)snapshot;
}
}  // namespace fixture
