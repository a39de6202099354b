import pathlib
import warnings

import fastwave


def test_modules_compile_without_warnings():
    # e.g. an invalid escape sequence in a docstring warns at compile time
    for path in sorted(pathlib.Path(fastwave.__file__).parent.rglob("*.py")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(), str(path), "exec")
