"""VM flavors."""

import pytest

from repro.iaas.vm import DEFAULT_FLAVOR, VMFlavor


def test_default_flavor():
    assert DEFAULT_FLAVOR.cores == 4.0
    assert DEFAULT_FLAVOR.memory_mb == 8192.0


def test_validation():
    with pytest.raises(ValueError):
        VMFlavor(cores=0.0)
    with pytest.raises(ValueError):
        VMFlavor(boot_median=0.0)
    with pytest.raises(ValueError):
        VMFlavor(boot_sigma=-0.1)


@pytest.mark.parametrize("attr", ["memory_mb", "io_mbps", "net_mbps"])
def test_each_size_must_be_positive(attr):
    with pytest.raises(ValueError, match=attr):
        VMFlavor(**{attr: 0.0})
    with pytest.raises(ValueError, match=attr):
        VMFlavor(**{attr: -1.0})
