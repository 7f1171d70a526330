"""Suite runner and the ``verify`` command line interface."""

# suites first, and brcomplex first in suites: the engine loads before the
# ribet layer.  Without a bytecode cache, compiling groebner.py is the largest
# allocation of the import, and a run's peak RSS is lower when it comes early,
# on the smaller heap.
from .suites import SUITES, list_suites, run_suite
from .config import SuiteConfig, load_config, parse_flat_config
from .report import CheckResult, Report
