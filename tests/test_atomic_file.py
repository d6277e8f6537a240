"""Tests for the one atomic file writer every output goes through."""

import os

import pytest

from repro.atomic_file import check_writable, write_atomic


class TestWriteAtomic:
    def test_creates_missing_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.json"
        write_atomic(str(path), "{}\n")
        assert path.read_text() == "{}\n"
        assert os.listdir(path.parent) == ["out.json"]

    def test_replaces_an_existing_file_whole(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("old contents, longer than the new ones")
        write_atomic(str(path), "new")
        assert path.read_text() == "new"
        assert os.listdir(tmp_path) == ["out.json"]

    def test_a_failed_write_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("old")
        with pytest.raises(UnicodeEncodeError):
            write_atomic(str(path), "new \ud800")
        assert path.read_text() == "old"
        assert os.listdir(tmp_path) == ["out.json"]


class TestCheckWritable:
    def test_path_under_a_regular_file(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(NotADirectoryError):
            check_writable(str(blocker / "out.json"))

    def test_existing_directory(self, tmp_path):
        with pytest.raises(IsADirectoryError):
            check_writable(str(tmp_path))

    def test_usable_path_leaves_only_its_directory(self, tmp_path):
        check_writable(str(tmp_path / "new" / "out.json"))
        assert os.listdir(tmp_path) == ["new"]
        assert os.listdir(tmp_path / "new") == []
