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


def node_grid(z: complex, q: float) -> str | None:
    """The grid on which special_functions._node_loop sums D(z, q): "z" for
    the grid z takes, "other" for the other one, None where both refuse.

    The node tables are swapped for lists that note when they are iterated,
    so this is the grid the kernel ran on, not a restatement of its rule.
    """
    from unittest import mock

    from qplasma import special_functions as sf

    ran = []

    class Table(list):
        def __iter__(self):
            ran.append(self.grid)
            return super().__iter__()

    a, b = Table(sf._NODES_A), Table(sf._NODES_B)
    a.grid, b.grid = "A", "B"
    u = -z if z.imag < 0.0 else z  # the kernel sums at the upper-half point
    with mock.patch.object(sf, "_NODES_A", a), mock.patch.object(sf, "_NODES_B", b):
        D = sf._node_loop(u, q, False)[0]
    if D is None:
        assert not ran, (z, q)
        return None
    (grid,) = ran
    return "z" if grid == ("A" if 0.25 <= (u.real / 0.5) % 1.0 < 0.75 else "B") else "other"
