"""Doctest-run the README quickstart snippets so the examples cannot rot.

Every fenced ``python`` block in the top-level README that contains
doctest prompts is executed, in order, with shared globals (later blocks
may build on earlier ones — exactly how a reader would paste them into a
REPL).  A README edit that breaks an example fails CI here.
"""

from __future__ import annotations

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)


def test_readme_has_doctest_snippets():
    blocks = [block for block in _python_blocks() if ">>>" in block]
    assert len(blocks) >= 4, "README lost its quickstart snippets"


def test_readme_snippets_execute():
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner(
        optionflags=doctest.ELLIPSIS | doctest.NORMALIZE_WHITESPACE
    )
    globs: dict = {}
    for number, block in enumerate(_python_blocks()):
        if ">>>" not in block:
            continue
        test = parser.get_doctest(
            block, globs, f"README block {number}", str(README), 0
        )
        runner.run(test, clear_globs=False)
        assert runner.failures == 0, f"README block {number} failed"
        globs.update(test.globs)


def test_readme_mentions_the_cli_surface():
    text = README.read_text()
    for needle in (
        "repro-gfd discover",
        "repro-gfd enforce",
        "repro-gfd cover",
        "--backend",
        "--index",
    ):
        assert needle in text, f"README lost its {needle!r} documentation"


def test_readme_knob_table_names_real_config_fields():
    """A knob the table places in a config dataclass is a field of it.

    Per row of "Knobs that matter": every back-ticked identifier in the
    first column (CLI flags and environment variables aside) must be a
    ``dataclasses.fields()`` member of one of the config classes the
    second column names — so a deleted or renamed knob cannot linger.
    """
    import dataclasses

    from repro.core import DiscoveryConfig, EnforcementConfig, FaultConfig
    from repro.serve import ServeConfig

    configs = {
        cls.__name__: {field.name for field in dataclasses.fields(cls)}
        for cls in (DiscoveryConfig, EnforcementConfig, FaultConfig, ServeConfig)
    }
    table = README.read_text().split("## Knobs that matter")[1].split("\n## ")[0]
    checked = 0
    for row in table.splitlines():
        cells = [cell.strip() for cell in row.strip().strip("|").split("|")]
        if len(cells) < 3 or set(cells[0]) <= set("-"):
            continue
        classes = [c for c in re.findall(r"`(\w+)`", cells[1]) if c in configs]
        if not classes:
            continue  # a Session(...)/CLI-only knob, not a config field
        fields = set().union(*(configs[c] for c in classes))
        for name in re.findall(r"`([a-z_][a-z0-9_]*)`", cells[0]):
            assert name in fields, (
                f"README knob {name!r} is not a field of {' / '.join(classes)}"
            )
            checked += 1
    assert checked >= 10, "README knob table went missing or unparseable"
