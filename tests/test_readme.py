"""The README's Python examples, run as one doctest.

Only the lines between a ```python fence and the next closing fence are
read, so the fences themselves are never taken for expected output. The
blocks share one namespace, as they would in one interactive session.
"""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    test = doctest.DocTestParser().get_doctest("".join(blocks), {}, "README.md", str(README), 0)
    failed, attempted = doctest.DocTestRunner().run(test)
    assert attempted == len(test.examples) > 0
    assert failed == 0
