"""Setuptools shim.

The offline environment has no ``wheel`` package, so PEP 517 editable
installs fail with "invalid command 'bdist_wheel'".  Keeping a classic
``setup.py`` (and no ``[build-system]`` table in pyproject.toml) lets
``pip install -e .`` take the legacy develop path, which works offline.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description=(
        "Reproduction of 'tQUAD - Memory Bandwidth Usage Analysis' "
        "(ICPP 2010): a Pin-style DBI substrate, the QUAD/tQUAD profilers, "
        "and the hArtes-wfs case study"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro.apps": ["**/*.mc", "**/*.s", "wfs/*.mc"]},
    include_package_data=True,
    install_requires=["numpy"],
    entry_points={"console_scripts": ["tquad=repro.cli:main"]},
)
