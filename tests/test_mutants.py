"""The mutation list in ``tests/mutants.py`` stays runnable.

``python tests/mutants.py`` runs the list, one pytest process per mutation.
These tests start no process: they check that every old text still occurs
exactly once in its file and that every test a mutation names is still
collected, so an edit of the library or a renamed test cannot leave an
entry that no longer applies.
"""

import pytest

from mutants import MUTANTS, ROOT


def test_every_old_text_occurs_once_in_its_file():
    for number, mutant in enumerate(MUTANTS, 1):
        for name, old, new in mutant.edits():
            text = (ROOT / "src" / "qcovert" / name).read_text(encoding="utf-8")
            assert old != new and text.count(old) == 1, (number, name, old)


class _Collected:
    """Records the node IDs a pytest session collects."""

    def __init__(self):
        self.ids = set()

    def pytest_collection_finish(self, session):
        self.ids.update(item.nodeid for item in session.items)


def test_every_named_test_is_collected():
    named = {test for mutant in MUTANTS for test in mutant.kills}
    files = sorted({test.split("::")[0] for test in named})
    collected = _Collected()
    code = pytest.main(["--collect-only", "-qq", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                        *(str(ROOT / name) for name in files)], plugins=[collected])
    assert code == 0
    assert named <= collected.ids, sorted(named - collected.ids)
