import os

import hypothesis

import qplasma

# subprocesses such as `python -m qplasma` import the same package as the tests
_SRC = os.path.dirname(os.path.dirname(qplasma.__file__))
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

hypothesis.settings.register_profile(
    "qplasma", deadline=None, max_examples=60,
)
hypothesis.settings.load_profile("qplasma")


def assert_cclose(a: complex, b: complex, rtol: float = 1e-12, atol: float = 0.0):
    """|a - b| <= atol + rtol * |b| for complex scalars, with a readable message."""
    err = abs(complex(a) - complex(b))
    bound = atol + rtol * abs(complex(b))
    assert err <= bound, f"{a!r} != {b!r} (|diff|={err:.3e} > {bound:.3e})"
