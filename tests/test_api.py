import photon_slh
from photon_slh import model, operators, oracles, pulses, transfer


def test_package_exports_the_module_lists():
    joined = [
        name for module in (operators, model, transfer, pulses, oracles) for name in module.__all__
    ]
    assert photon_slh.__all__ == ["__version__", *joined]
    assert len(set(photon_slh.__all__)) == len(photon_slh.__all__)
    for name in photon_slh.__all__:
        assert hasattr(photon_slh, name), name
    assert len(photon_slh.__all__) <= 41
