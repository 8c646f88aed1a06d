"""Load permnet before any test module loads numpy: the package pins BLAS to
one thread at import, which only takes effect before numpy starts."""

import permnet  # noqa: F401
