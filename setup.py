"""Setuptools shim.

The primary metadata lives in pyproject.toml; this file exists so the
package installs in environments whose setuptools predates PEP 660
editable-install support (``python setup.py develop`` / ``pip install -e .``
without the ``wheel`` package).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "RepEx reproduction: a flexible framework for scalable replica "
        "exchange molecular dynamics simulations"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
)
