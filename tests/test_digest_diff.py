"""The line comparison of scripts/digest_diff.py, which gates a change's
artifact and decode digests against its parent's."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

from digest_diff import compare  # noqa: E402

OLD, NEW = "a09afe3e" + "0" * 56, "5f3c21d9b7e4" + "1" * 52
PARENT = [f"vocab.txt {'c' * 64}", f"toy/checkpoint.o2r {OLD}", f"greedy {'d' * 64}"]


def test_identical_lists_report_nothing_and_pass():
    assert compare(PARENT, list(PARENT)) == ([], True)


def test_moved_hash_without_explanation_is_reported_and_fails():
    # the explanation names only 11 of the 12 hex digits
    change = [PARENT[0], f"toy/checkpoint.o2r {NEW}", PARENT[2]]
    assert compare(PARENT, change, "checkpoint moved, hash 5f3c21d9b7e") == (
        [f"toy/checkpoint.o2r {OLD} -> {NEW}"], False)


def test_moved_hash_named_in_the_explanation_passes():
    change = [PARENT[0], f"toy/checkpoint.o2r {NEW}", PARENT[2]]
    report, passed = compare(PARENT, change, "- checkpoint now `5f3c21d9b7e4…`\n")
    assert report == [f"toy/checkpoint.o2r {OLD} -> {NEW}"] and passed


def test_one_moved_hash_unexplained_fails_beside_an_explained_one():
    change = [PARENT[0], f"toy/checkpoint.o2r {NEW}", f"greedy {'e' * 64}"]
    report, passed = compare(PARENT, change, NEW[:12])
    assert len(report) == 2 and not passed


def test_name_on_one_side_only_is_reported_and_fails():
    change = PARENT[:2] + [f"beam4 {'f' * 64}"]
    assert compare(PARENT, change, "f" * 64) == (
        ["greedy only in parent", "beam4 only in change"], False)
