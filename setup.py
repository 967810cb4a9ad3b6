"""Setuptools shim.

The offline evaluation environment ships setuptools without the ``wheel``
package, so PEP 660 editable installs (which need ``bdist_wheel``) fail.
Keeping a classic ``setup.py`` lets ``pip install -e .`` fall back to the
legacy ``setup.py develop`` code path, which works offline.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Hybrid Hexagonal/Classical Tiling for GPUs' (CGO 2014)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro.tuning": ["TUNING_baseline.json"]},
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["hexcc=repro.cli:process_main"]},
)
