"""The benchmark tracer's bindings.

``perfbench/tracing.py`` wraps functions where their callers bind them
and skips a name it does not find, so a renamed or removed function
would leave its per-layer counter at 0 with no error.  The names it
skips are listed here, so that any change to them shows.
"""

import importlib.util
from pathlib import Path

from vecchrom import cli, identities, params

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

# the tracer's patches that find no attribute to wrap
UNBOUND = [
    "vecchrom.sdp.eig_sym",
    "vecchrom.identities.theta_bar",
    "vecchrom.identities.chi_vec",
    "vecchrom.cli.theta_bar",
    "vecchrom.cli.chi_vec",
    "vecchrom.identities.spectral_vector_chromatic",
    "vecchrom.identities.spectral_lower_bound",
    "vecchrom.identities.chromatic_number",
    "vecchrom.identities.proper_coloring",
    "vecchrom.identities.cached_param",
]


def test_tracer_binds_every_name_but_the_listed_ones():
    unbound = []

    class Probe(tracing.Tracer):
        def patch(self, owner, attr, wrapper):
            if not hasattr(owner, attr):
                unbound.append(f"{owner.__name__}.{attr}")
            super().patch(owner, attr, wrapper)

    bound = [(module, name, getattr(module, name)) for module, name in (
        (params, "solve"), (params, "eig_sym"), (params, "theta_bar"),
        (identities, "run_suite"), (cli, "chromatic_number"), (cli, "main"))]
    probe = Probe()
    tracing.install(probe)
    try:
        assert unbound == UNBOUND
        assert all(getattr(module, name) is not f for module, name, f in bound)
    finally:
        probe.uninstall()
    assert all(getattr(module, name) is f for module, name, f in bound)
