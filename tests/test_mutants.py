from mutants import MUTANTS, misplaced


def test_each_mutant_edits_one_place_outside_the_judge():
    # The runner itself (tests/mutants.py, a CI step) applies and judges them.
    assert misplaced() == []
    assert "synth.py" not in {file for _, file, _, _ in MUTANTS}
