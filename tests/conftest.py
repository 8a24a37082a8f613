import pytest

from rpje import rules as rules_mod
from rpje.kg import KnowledgeGraph
from rpje.synthetic import ToyConfig, generate


def make_kg(train, valid=None, test=None) -> KnowledgeGraph:
    return KnowledgeGraph.from_rows(train, valid or [], test or [])


def parse_rule_lines(lines, kg, tmp_path, threshold=0.0, stats=None):
    path = tmp_path / "rules.tsv"
    path.write_text("\n".join(lines) + "\n")
    raw = rules_mod.parse_rules(path, kg, stats)
    encoded = rules_mod.encode_rules(raw, kg, stats)
    return rules_mod.build_index(encoded, threshold, stats)


# One human-readable verdict per acceptance criterion; printed in the terminal
# summary so the lines survive pytest's output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def toy_data():
    return generate(ToyConfig(seed=7))


@pytest.fixture(scope="session")
def toy_kg(toy_data):
    return KnowledgeGraph.from_rows(toy_data.train, toy_data.valid, toy_data.test)
