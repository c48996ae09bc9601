"""Hypothesis profiles.  Tier-1 runs under "tier1": each `@given` test
draws the same examples on every run (`derandomize`), with no deadline to
flake on a slow host and no example database to replay failures that a
clean checkout does not see; each test keeps its own `max_examples`.
`pytest --hypothesis-profile=explore` draws fresh examples instead, with
the default database, to look for new failures."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.register_profile("explore", deadline=None)
settings.load_profile("tier1")
