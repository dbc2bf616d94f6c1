"""Test helper: an AIT snapshot with one application withdrawn."""

from repro.dtv import ApplicationInformationTable
from repro.errors import DTVError


def without_app(ait: ApplicationInformationTable,
                app_id: int) -> ApplicationInformationTable:
    """New snapshot of ``ait`` with ``app_id`` removed (version bumped)."""
    if all(e.app_id != app_id for e in ait.entries):
        raise DTVError(f"app_id {app_id} not in AIT")
    return ApplicationInformationTable(
        entries=tuple(e for e in ait.entries if e.app_id != app_id),
        table_version=ait.table_version + 1)
