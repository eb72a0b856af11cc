from fractions import Fraction

import pytest
from hypothesis import settings

from nice_einstein import parse, parse_family


# CI runs the property tests with --hypothesis-profile=ci: every run draws the
# same examples.  Without the option they draw fresh ones.
settings.register_profile("ci", derandomize=True)


STRUCTURES = {
    "heisenberg": "(0,0,e^{12})",
    "631:6": "(0,0,0,e^{12},e^{13},e^{25}+e^{34})",
    "62:4a": "(0,0,0,0,e^{13}+e^{24},e^{12}+e^{34})",
    "731:15": "(0,0,0,0,e^{12},e^{13},e^{26}+e^{35})",
    "75432:3": "(0,0,-e^{12},e^{13},e^{14}+e^{23},e^{15}+e^{24},e^{25}+e^{34})",
    "75421:4": "(0,0,e^{12},e^{13},e^{23},e^{15}+e^{24},e^{16}+e^{34})",
    "74321:12": "(0,0,0,-e^{12},e^{14}+e^{23},e^{15}+e^{34},e^{16}+e^{35})",
    "842:117": "(0,0,0,0,e^{12},e^{34},e^{15}+e^{24}+e^{36},e^{13}+e^{25}+e^{46})",
    "8531:93": "(0,0,0,-e^{12},e^{13},e^{14},e^{15},e^{27}+e^{36}+e^{45})",
    "852:30@(1,2)": "(0,0,0,e^{12},2 e^{13},e^{23},e^{14}+e^{26}+e^{35},e^{15}+e^{24}+e^{36})",
    "dim10": "(0,0,0,0,0,0,0,0,e^{12}+e^{34}+e^{56}+e^{78},e^{15}+e^{26}+e^{37}+e^{48})",
}

FAMILIES = {
    "741:6": "(0,0,0,(lambda-1) e^{12},lambda e^{13},e^{23},e^{16}+e^{25}+e^{34})",
    "754321:9": "(0,0,(1-lambda) e^{12},e^{13},lambda e^{14}+e^{23},e^{15}+e^{24},e^{16}+e^{25}+e^{34})",
    "93:86": "(0,0,0,0,0,0,a e^{15}+e^{24}+e^{36},e^{13}+e^{25}+e^{46},e^{12}+e^{34}+e^{56})",
    "841:48": "(0,0,0,0,(a2-1) e^{12},a2 e^{13},e^{23},e^{17}+e^{26}+e^{35})",
    "852:30": "(0,0,0,a1 e^{12},a2 e^{13},e^{23},e^{14}+e^{26}+e^{35},e^{15}+e^{24}+e^{36})",
}


@pytest.fixture
def cold_caches():
    """Empty the per-diagram caches and the signature memo, so the test's
    first classification builds everything."""
    import nice_einstein.diagram as diagram
    import nice_einstein.einstein as einstein

    diagram._nice_diagram.cache_clear()
    einstein._diagram_systems.cache_clear()
    einstein._recovery_base.cache_clear()
    einstein._signature_of.cache_clear()


@pytest.fixture(scope="session")
def algebras():
    return {name: parse(s, name=name) for name, s in STRUCTURES.items()}


@pytest.fixture(scope="session")
def families():
    return {name: parse_family(s, name=name) for name, s in FAMILIES.items()}


def frac(x) -> Fraction:
    return Fraction(x)
