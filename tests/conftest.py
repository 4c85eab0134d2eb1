"""Session settings that keep a test run's writes out of the repository:
hypothesis keeps no example database, and its caches (the constants it
collects from the source, the Unicode tables) go to a temporary directory
that is removed when the run ends."""

import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("binwidth", database=None)
settings.load_profile("binwidth")

_STORAGE = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    # Before collection: hypothesis's plugin writes its constants cache then.
    config.stash[_STORAGE] = tempfile.TemporaryDirectory(prefix="binwidth-hypothesis-")
    set_hypothesis_home_dir(config.stash[_STORAGE].name)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    config.stash[_STORAGE].cleanup()
