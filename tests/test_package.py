import ast
import pathlib

import coslam
from coslam import geometry, scalar, spectral, transform

MODULES = (scalar, spectral, geometry, transform)

# Names a module binds only for bench/ to read or patch, each with the file
# that does: (module, name) -> file.
BENCH_BINDINGS = {
    ("transform", "haar_batch"): "bench/tracing.py",
    ("transform", "selberg_closed"): "bench/workloads.py",
}


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


def unread_imports(path):
    """The names a module's imports bind that no code of it reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names if alias.name != "*"}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound - read


def test_no_module_imports_a_name_it_never_reads():
    package = pathlib.Path(coslam.__file__).parent
    unread = {(path.stem, name) for path in package.glob("*.py") for name in unread_imports(path)}
    assert unread == set(BENCH_BINDINGS)
    root = pathlib.Path(__file__).resolve().parents[1]
    for (module, name), reader in BENCH_BINDINGS.items():
        assert name in (root / reader).read_text(encoding="utf-8"), (module, name, reader)
