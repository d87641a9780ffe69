"""Package metadata for the SubTab reproduction.

Kept as a classic ``setup.py`` (no ``pyproject.toml``): the offline
environment lacks the ``wheel`` package, so PEP 660 editable installs
cannot build an editable wheel, while ``python setup.py develop`` and
legacy-mode pip work from this metadata directly.
"""

import os

from setuptools import find_packages, setup

_here = os.path.dirname(os.path.abspath(__file__))
_readme = os.path.join(_here, "README.md")
long_description = ""
if os.path.exists(_readme):
    with open(_readme, encoding="utf-8") as handle:
        long_description = handle.read()

setup(
    name="subtab-repro",
    version="1.1.0",
    description=(
        'Reproduction of "Selecting Sub-tables for Data Exploration" '
        "(ICDE 2023) with a session-serving engine"
    ),
    long_description=long_description,
    long_description_content_type="text/markdown",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=[
        "numpy",
        "networkx",
        "scipy",
    ],
    extras_require={
        "test": ["pytest", "hypothesis", "pytest-benchmark"],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Scientific/Engineering :: Information Analysis",
    ],
)
