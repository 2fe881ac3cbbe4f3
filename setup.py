"""Package metadata: the ``repro`` package under ``src/``, its
requirements and the ``hipster-repro`` console command
(``repro.cli:main``).

Where ``setuptools`` and ``wheel`` are installed::

    pip install -e . --no-build-isolation

pip's editable installs all need ``wheel``; without it (e.g. offline),
``python setup.py develop`` installs the same editable package and
command.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="hipster-repro",
    version=VERSION,
    description=(
        "Reproduction of Hipster: Hybrid Task Manager for Latency-Critical "
        "Cloud Workloads (HPCA 2017)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy", "pyyaml"],
    entry_points={"console_scripts": ["hipster-repro = repro.cli:main"]},
)
