import numpy as np
import pytest

# nilt runs its qd tail in np.clongdouble, whose mantissa has 63 bits where
# long double is the x87 80-bit format (x86-64 Linux) and 52 where it is a
# plain double (Windows, macOS arm64).  A test marked long_double has a
# bound that only an 80-bit long double meets, such as the tail's, so it
# skips below 63 bits
LONG_DOUBLE_BITS = np.finfo(np.longdouble).nmant


def pytest_runtest_setup(item):
    if LONG_DOUBLE_BITS < 63 and item.get_closest_marker("long_double"):
        pytest.skip(f"the bound assumes an 80-bit long double (63 mantissa "
                    f"bits); this one has {LONG_DOUBLE_BITS}")
