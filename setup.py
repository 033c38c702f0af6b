"""Build shim for tools that still call ``setup.py`` (``python setup.py
develop`` in offline environments); all metadata lives in pyproject.toml."""
from setuptools import setup

setup()
