"""The README's API section names exactly what the package exports."""

import re
from pathlib import Path

import cfts

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

#: Names that were part of the library once and must not be documented.
RETIRED = ("cf_limit_check", "LimitEntry", "LimitReport", "residual_nonlinear",
           "classical_residual", "sample", "format_segment")


def _api_section() -> str:
    start = README.index("\n## API\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end >= 0 else None]


def test_every_export_is_in_the_api_section():
    api = _api_section()
    missing = [name for name in cfts.__all__ if not re.search(rf"`{name}\b", api)]
    assert missing == []


def test_no_retired_name_in_readme():
    assert not set(RETIRED) & set(cfts.__all__)
    found = [name for name in RETIRED if re.search(rf"\b{name}\b", README)]
    assert found == []
