import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(__file__))


def pytest_configure(config):
    # A complex value cast to real silently drops its imaginary part: fail on it.
    # numpy < 1.25 has the class as np.ComplexWarning, later numpy in np.exceptions.
    cls = getattr(np, "exceptions", np).ComplexWarning
    config.addinivalue_line("filterwarnings", f"error::{cls.__module__}.{cls.__name__}")
