"""Every golden record (tests/golden.py) comes out bit for bit as committed.

Under another machine stamp the records are not compared at all: their bits
may depend on numpy's SIMD dispatch and BLAS, and a looser comparison would
let a moved bit pass.
"""

import pytest

import golden

STORED = golden.load()


@pytest.mark.parametrize("name", golden.NAMES)
def test_record_is_unchanged(name):
    here = golden.stamp()
    if STORED["stamp"] != here:
        pytest.skip(f"records written under {STORED['stamp']}, this machine "
                    f"is {here}")
    assert name in STORED["records"], f"{name} has no record"
    got = golden.recipes()[name]()
    assert golden.differences(name, STORED["records"][name], got) == []


def test_every_record_is_computed():
    assert sorted(STORED["records"]) == sorted(golden.NAMES)
