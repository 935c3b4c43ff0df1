"""tools/drift.py: the figure, model and root values of two trees, compared."""

import importlib.util
import pathlib
import time

import pytest

from qplasma.dielectric import eps_quantum_omega

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "drift.py"
_spec = importlib.util.spec_from_file_location("drift", _PATH)
drift = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(drift)


def test_checkout_against_itself_is_identical(capsys):
    start = time.perf_counter()
    assert drift.main([str(drift.REPO), str(drift.REPO), "--n", "20"]) == 0
    elapsed = time.perf_counter() - start
    rows = {tuple(line.split()[:2]): line.split()[2:]
            for line in capsys.readouterr().out.splitlines()[2:-1]}
    # 20 points per scan: figures 1-4 are three quantum scans each, 5-14
    # one quantum and classical overlay each.  The model grid: 3 x_p, 3 y,
    # 4 x (x = 0 among them) and 4 q for the BGK models; y = 0 for
    # Lindhard's; x = 0 only for static; x != 0 and one q for Drude's
    assert rows == {
        ("figures", "quantum"): ["440", "0", "0", "0", "0.00e+00"],
        ("figures", "classical"): ["200", "0", "0", "0", "0.00e+00"],
        ("models", "quantum"): ["144", "0", "0", "0", "0.00e+00"],
        ("models", "classical"): ["144", "0", "0", "0", "0.00e+00"],
        ("models", "mermin"): ["144", "0", "0", "0", "0.00e+00"],
        ("models", "lindhard_collisionless"): ["48", "0", "0", "0", "0.00e+00"],
        ("models", "static"): ["36", "0", "0", "0", "0.00e+00"],
        ("models", "drude"): ["27", "0", "0", "0", "0.00e+00"],
        ("roots", "quantum"): ["41", "0", "0", "0", "0.00e+00"],
        ("roots", "classical"): ["41", "0", "0", "0", "0.00e+00"],
        ("roots", "mermin"): ["41", "0", "0", "0", "0.00e+00"],
    }
    assert elapsed <= 5.0  # ~0.2 s on an idle 2-CPU machine; room for a loaded one


def test_one_planted_moved_cell_is_counted_and_farther():
    inputs = [[1.0, 0.1, x, 0.5] for x in (0.7, 1.0, 1.3)]
    base = {}
    for i, at in enumerate(inputs):
        eps = eps_quantum_omega(at[0], at[1], at[2], at[3])
        base[f"cell {i}"] = ["figures", "quantum", at, eps.real, eps.imag]
    head = {key: list(value) for key, value in base.items()}
    head["cell 1"][3] *= 1.0 + 1e-10  # planted: Re eps moved by 1e-10 relative
    stats = drift.compare(base, head)
    s = stats["figures", "quantum"]
    assert (s["identical"], s["moved"], s["nearer"], s["farther"]) == (2, 1, 0, 1)
    eps = complex(*base["cell 1"][3:])
    assert s["worst"] == pytest.approx(abs(eps.real) * 1e-10 / max(abs(eps), abs(eps - 1.0)),
                                       rel=1e-5)
    assert drift.compare(base, base) == {("figures", "quantum"): dict(
        identical=3, moved=0, nearer=0, farther=0, worst=0.0)}


def test_planted_moved_root_is_counted_farther():
    # a Mermin root of the branches workload (seed 5, request 41) that lies
    # 2.8e-16 from mpref.root, where a 30-digit findroot seeded by it finds
    # no root, and the solver's root there, 7.8e-16 off, as the moved value
    inputs = [1.2016589350090334, 0.0020470118278701752, None, 0.7543326297584885]
    base = {"root": ["roots", "mermin", inputs, 1.6457020683130397, -0.14341000823740163]}
    head = {"root": ["roots", "mermin", inputs, 1.6457020683130381, -0.14341000823740113]}
    s = drift.compare(base, head)["roots", "mermin"]
    assert (s["identical"], s["moved"], s["nearer"], s["farther"]) == (0, 1, 0, 1)
    s = drift.compare(head, base)["roots", "mermin"]
    assert (s["moved"], s["nearer"], s["farther"]) == (1, 1, 0)


def test_moved_value_without_a_reference_is_neither(monkeypatch):
    # a root whose findroot fails and an eps whose reference overflows:
    # each counted moved, but neither nearer nor farther
    def fails(*args):
        raise ValueError("findroot found no root")

    def overflows(*args):
        raise OverflowError("reference leaves range")

    monkeypatch.setattr(drift.mpref, "root", fails)
    monkeypatch.setattr(drift.mpref, "epsilon", overflows)
    base = {"root": ["roots", "quantum", [1.0, 0.01, None, 0.3], 1.2, -0.01],
            "cell": ["figures", "quantum", [1.0, 0.1, 1.0, 0.5], 0.5, -0.2]}
    head = {"root": ["roots", "quantum", [1.0, 0.01, None, 0.3], 1.2 + 1e-12, -0.01],
            "cell": ["figures", "quantum", [1.0, 0.1, 1.0, 0.5], 0.5, -0.2 + 1e-12]}
    for s in drift.compare(base, head).values():
        assert (s["identical"], s["moved"], s["nearer"], s["farther"]) == (0, 1, 0, 0)
