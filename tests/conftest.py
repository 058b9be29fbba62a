import pytest

# reference.py is not a test module; rewrite its asserts too, so a failing
# shared check shows its values as an in-file one would
pytest.register_assert_rewrite("reference")
