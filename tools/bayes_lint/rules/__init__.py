"""Rule modules. Importing this package registers every rule with the
engine registry (each module calls `@rule(...)` at import time)."""

from . import clock          # noqa: F401  R012
from . import conventions    # noqa: F401  R000-R005
from . import fusion         # noqa: F401  R007
from . import gate           # noqa: F401  R014
from . import headers        # noqa: F401  R006
from . import layering       # noqa: F401  R010
from . import rng_forks      # noqa: F401  R013
from . import serve          # noqa: F401  R009
from . import thread_safety  # noqa: F401  R011
