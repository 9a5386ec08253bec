"""Every declared identity, under each configuration of the fixed set.

Each suite runs once per configuration.  An identity that needs a
vacuum scheme the configuration does not run must be absent from the
report; one that needs a moving frame must be skipped in the rest frame
with the documented reason; every other declared identity must pass.
"""

import pytest

from stueckelberg.report import SuiteConfig
from stueckelberg.suites import (IDENTITIES, MOVING_FRAME, REST_FRAME_REASON,
                                 SCHEME_1, SCHEME_2, run_suite)

# The default configuration is also the first acceptance momentum, m = 4
# and p = (0, 0, 3); the other two acceptance momenta follow it.
CONFIGS = {
    "default": SuiteConfig(),
    "m12-p340": SuiteConfig(mass=12, momentum=(3, 4, 0)),
    "m24-p236": SuiteConfig(mass=24, momentum=(2, 3, 6)),
    "scheme1": SuiteConfig(scheme="1"),
    "scheme2": SuiteConfig(scheme="2"),
    "rest-frame": SuiteConfig(momentum=(0, 0, 0)),
}


@pytest.fixture(scope="module")
def reports():
    """(suite, config name) -> {id: record}; each suite runs once per configuration."""
    cache = {}

    def report(suite, config):
        if (suite, config) not in cache:
            records = run_suite(suite, CONFIGS[config])
            ids = [r.ident for r in records]
            assert len(ids) == len(set(ids)), f"{suite} reports an id twice under {config}"
            cache[(suite, config)] = {r.ident: r for r in records}
        return cache[(suite, config)]
    return report


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("decl", IDENTITIES, ids=lambda d: f"{d.suite}/{d.ident}")
def test_declared_identity(reports, decl, config):
    cfg = CONFIGS[config]
    rec = reports(decl.suite, config).get(decl.ident)
    if decl.needs in (SCHEME_1, SCHEME_2) and cfg.scheme not in ("both", str(decl.needs)):
        assert rec is None
        return
    assert rec is not None, "declared identity missing from the report"
    assert rec.claim == decl.claim
    if decl.needs == MOVING_FRAME and not any(cfg.momentum):
        assert (rec.status, rec.reason) == ("skip", REST_FRAME_REASON)
    else:
        assert rec.status == "pass", rec.witness


def test_each_identity_is_declared_once():
    keys = [(d.suite, d.ident) for d in IDENTITIES]
    assert len(keys) == len(set(keys))
