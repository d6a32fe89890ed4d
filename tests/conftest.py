from pathlib import Path

import pytest

from epart.dsl import parse_program
from epart.dsl.validate import _Checker
from epart.partition import compute_images

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def bank_source() -> str:
    return (FIXTURES / "bank.ep").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def bank_program(bank_source):
    return parse_program(bank_source)


@pytest.fixture(scope="session")
def bank_plan(bank_program):
    return compute_images(bank_program)


@pytest.fixture
def checker_runs(monkeypatch):
    """Every _Checker.run made while the test runs, in order."""
    runs = []
    original = _Checker.run

    def counted(checker):
        runs.append(checker)
        return original(checker)

    monkeypatch.setattr(_Checker, "run", counted)
    return runs
