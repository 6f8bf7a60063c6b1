"""The mutation record's edits still apply to the tree, and its test
selections name files that exist (no build, no test run).

``scripts/mutants.py`` describes each mutant as exact ``(file, old, new)``
edits; a refactor that moves an ``old`` text would leave the mutant
unappliable, and the mutation run would report it only when someone runs it.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_mutant_names_are_unique():
    names = [m.name for m in _mutants()]
    assert len(names) == len(set(names))


def test_every_edit_applies_exactly_once():
    # edits apply in order, as the script applies them, so a mutant's second
    # edit of one file is matched against the text the first one left
    for mutant in _mutants():
        texts = {}
        for file, old, new in mutant.edits:
            text = texts.setdefault(file, (ROOT / file).read_text())
            assert text.count(old) == 1, (mutant.name, file, text.count(old))
            texts[file] = text.replace(old, new)


def test_every_selected_test_file_exists():
    # read from the selection's arguments, not by collecting them: a renamed
    # file would otherwise show only as "the unmutated tree fails"
    for mutant in _mutants():
        args = iter(mutant.tests)
        for arg in args:
            if arg == "-k":
                next(args)
            else:
                assert (ROOT / arg).is_file(), (mutant.name, arg)
