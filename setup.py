"""Setup shim: ``python setup.py develop`` installs ``repro`` from ``src/``.

The repository has no ``pyproject.toml`` and this file names no
metadata: setuptools finds the package through its ``src/`` layout.
``pip install -e .`` needs the ``wheel`` package; where it is missing
(an offline machine), ``pip install --no-build-isolation --no-index -e .``
fails with ``invalid command 'bdist_wheel'``.  Use
``python setup.py develop`` there, or run from the checkout with
``PYTHONPATH=src``.
"""

from setuptools import setup

setup()
