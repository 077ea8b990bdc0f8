import coslam
from coslam import geometry, scalar, spectral, transform

MODULES = (scalar, spectral, geometry, transform)


def test_package_exports_each_module_list_once():
    assert coslam.__all__ == [name for m in MODULES for name in m.__all__] + ["__version__"]
    assert len(set(coslam.__all__)) == len(coslam.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(coslam, name) is getattr(module, name)
    assert coslam.__version__ == "1.0.0"


def test_array_results_importable_from_package():
    assert coslam.SpectralArray is spectral.SpectralArray
    assert isinstance(coslam.c_p(coslam.GrassmannSignature(2, 1, coslam.FieldTag.REAL), [3.0]),
                      coslam.SpectralArray)
