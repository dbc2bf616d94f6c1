"""Unit tests for AIT signalling."""

import pytest

from repro.dtv import AITEntry, ApplicationControlCode, ApplicationInformationTable
from repro.errors import DTVError
from tests.dtv.ait_edits import without_app


def entry(app_id=1, code=ApplicationControlCode.AUTOSTART, version=1):
    return AITEntry(app_id=app_id, name=f"app{app_id}", control_code=code,
                    carousel_path=f"app{app_id}.bin", version=version)


def test_entry_validation():
    with pytest.raises(DTVError):
        AITEntry(app_id=-1, name="x", carousel_path="p",
                 control_code=ApplicationControlCode.PRESENT)
    with pytest.raises(DTVError):
        AITEntry(app_id=1, name="", carousel_path="p",
                 control_code=ApplicationControlCode.PRESENT)
    with pytest.raises(DTVError):
        AITEntry(app_id=1, name="x", carousel_path="",
                 control_code=ApplicationControlCode.PRESENT)
    with pytest.raises(DTVError):
        entry(version=0)


def test_table_rejects_duplicate_app_ids():
    with pytest.raises(DTVError):
        ApplicationInformationTable(entries=(entry(1), entry(1)))


def test_autostart_entries_filtered():
    ait = ApplicationInformationTable(entries=(
        entry(1, ApplicationControlCode.AUTOSTART),
        entry(2, ApplicationControlCode.PRESENT),
        entry(3, ApplicationControlCode.AUTOSTART),
    ))
    assert [e.app_id for e in ait.autostart_entries()] == [1, 3]


def test_entry_lookup():
    ait = ApplicationInformationTable(entries=(entry(5),))
    assert ait.entry(5).name == "app5"
    with pytest.raises(DTVError):
        ait.entry(6)


def test_with_entry_adds_and_replaces_bumping_version():
    ait = ApplicationInformationTable()
    assert ait.table_version == 1
    ait2 = ait.with_entry(entry(1))
    assert ait2.table_version == 2
    assert len(ait2.entries) == 1
    replacement = entry(1, ApplicationControlCode.KILL, version=2)
    ait3 = ait2.with_entry(replacement)
    assert ait3.table_version == 3
    assert len(ait3.entries) == 1
    assert ait3.entry(1).control_code is ApplicationControlCode.KILL


def test_without_app():
    ait = ApplicationInformationTable(entries=(entry(1), entry(2)))
    ait2 = without_app(ait, 1)
    assert [e.app_id for e in ait2.entries] == [2]
    assert ait2.table_version == ait.table_version + 1
    with pytest.raises(DTVError):
        without_app(ait, 99)


def test_original_table_unchanged_by_with_entry():
    ait = ApplicationInformationTable()
    ait.with_entry(entry(1))
    assert ait.entries == ()
