"""Documentation guards: the README's code actually runs.

Doc rot is the usual failure mode of example-rich READMEs; this test
extracts the quickstart code block and executes it verbatim, and the
drift gate holds every command line and config keyword the docs show
against the parser and the dataclasses they name.
"""

import dataclasses
import pathlib
import re
import shlex

import pytest

import repro.__main__ as cli
from repro.core.bcp import BCPConfig
from repro.net import ClusterConfig, MeasurementConfig, RetryPolicy, codec

README = pathlib.Path(__file__).parent.parent / "README.md"
DOCS = [README, *sorted((README.parent / "docs").glob("*.md"))]


def python_blocks(text: str):
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


class TestReadme:
    def test_readme_exists_with_sections(self):
        text = README.read_text()
        for heading in ("## Install", "## Quickstart", "## Tests and benchmarks",
                        "## Architecture", "## Scale"):
            assert heading in text

    @pytest.mark.slow
    def test_quickstart_block_executes(self):
        blocks = python_blocks(README.read_text())
        assert blocks, "README must contain a python quickstart block"
        namespace = {}
        exec(compile(blocks[0], "README.quickstart", "exec"), namespace)  # noqa: S102
        # the block prints a composed graph and establishes a session
        assert "result" in namespace and namespace["result"] is not None
        assert "session" in namespace

    def test_cited_paths_exist(self):
        text = README.read_text()
        root = README.parent
        for rel in ("DESIGN.md", "EXPERIMENTS.md", "examples/quickstart.py",
                    "examples/video_streaming.py", "examples/secure_composition.py",
                    "scripts/run_all_experiments.py"):
            assert (root / rel).exists(), f"README references missing {rel}"
            assert rel.split("/")[-1] in text


class TestDesignDoc:
    def test_per_experiment_index_covers_all_figures(self):
        text = (README.parent / "DESIGN.md").read_text()
        for fig in ("Fig. 8", "Fig. 9", "Fig. 10", "Fig. 11"):
            assert fig in text

    def test_experiments_doc_reports_each_figure(self):
        text = (README.parent / "EXPERIMENTS.md").read_text()
        for section in ("Figure 8", "Figure 9", "Figure 10", "Figure 11",
                        "overhead", "Backup-count"):
            assert section in text


class TestDriftGate:
    """What the docs show of the CLI and the configs exists."""

    @staticmethod
    def command_lines(text: str):
        """argv of every ``python -m repro …`` command the text shows, up
        to a closing backtick, a comment or the end of the line — a
        deleted subcommand included, so the parser can refuse it."""
        for shown in re.findall(r"python -m repro\b([^`#\n]*)", text):
            yield shlex.split(shown)

    @staticmethod
    def keywords(text: str, name: str):
        """Keyword names of every ``name(…)`` call the text shows (its own:
        a nested call's keywords are that call's)."""
        for match in re.finditer(rf"\b{name}\(", text):
            depth, own = 1, []
            for ch in text[match.end():]:
                depth += (ch in "([{") - (ch in ")]}")
                if depth == 0:
                    break
                own.append(ch if depth == 1 else " ")
            yield from re.findall(r"(\w+)\s*=(?!=)", "".join(own))

    def test_scanners_see_what_they_should(self):
        text = "run `python -m repro serve --peers 5` or\npython -m repro fig8 --plot  # chart\n"
        assert list(self.command_lines(text)) == [["serve", "--peers", "5"], ["fig8", "--plot"]]
        # a subcommand that is gone is still a shown command, and refused
        (argv,) = self.command_lines("`python -m repro cluster --peers 48`")
        assert argv == ["cluster", "--peers", "48"]
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(argv)
        text = "ClusterConfig(n_peers=4, measurement=MeasurementConfig(enabled=False), seed=1)"
        assert list(self.keywords(text, "ClusterConfig")) == ["n_peers", "measurement", "seed"]
        assert list(self.keywords(text, "MeasurementConfig")) == ["enabled"]

    @pytest.mark.parametrize("doc", DOCS, ids=lambda doc: doc.name)
    def test_shown_command_lines_parse(self, doc):
        for argv in self.command_lines(doc.read_text()):
            try:
                cli.build_parser().parse_args(argv)
            except SystemExit:
                pytest.fail(f"{doc.name} shows `python -m repro {' '.join(argv)}`, which the parser refuses")

    @pytest.mark.parametrize(
        "config",
        [ClusterConfig, MeasurementConfig, RetryPolicy, BCPConfig],
    )
    def test_shown_config_keywords_are_fields(self, config):
        fields = {f.name for f in dataclasses.fields(config)}
        for doc in DOCS:
            shown = set(self.keywords(doc.read_text(), config.__name__))
            assert shown <= fields, f"{doc.name}: {config.__name__} has no {sorted(shown - fields)}"

    def test_protocol_type_id_table_is_the_codecs(self):
        text = (README.parent / "docs" / "PROTOCOL.md").read_text()
        shown = {int(i): name for i, name in re.findall(r"\| (\d+) \| `(\w+)`", text)}
        assert shown == {i: cls.__name__ for cls, i in codec._BIN_IDS.items()}

    def test_no_doc_cites_the_deleted_benchmarks_tree(self):
        # bench/ is the one benchmark harness; the shape checks are tier-1
        root = README.parent
        for rel in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/ARCHITECTURE.md",
                    ".claude/skills/verify/SKILL.md"):
            assert "benchmarks/" not in (root / rel).read_text(), f"{rel} cites benchmarks/"
