"""Benchmark harness configuration.

Each ``bench_e*.py`` regenerates one table or figure of the paper,
which its module docstring names. Run with::

    pytest benchmarks/ --benchmark-only

The reproduced rows/series are printed on the "-s" stream and asserted
structurally (who wins / what is flagged), not on absolute numbers.

Big exploration sweeps are marked ``slow_sweep`` (registered below and
in ``setup.cfg``); deselect them with ``-m "not slow_sweep"`` when a
quick benchmark pass is enough.
"""


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow_sweep: big state-space exploration sweeps "
        "(deselect with -m \"not slow_sweep\")")
