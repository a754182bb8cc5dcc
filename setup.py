"""Setuptools shim.

The canonical metadata lives in pyproject.toml; this file exists so the
package installs in development mode where the ``wheel`` package is
missing (PEP 660 editable installs need it)::

    python setup.py develop --no-deps

That links ``src/`` into the environment and installs the ``pim-cache``
script; install ``numpy`` (the one runtime dependency) separately.
"""

from setuptools import setup

setup()
