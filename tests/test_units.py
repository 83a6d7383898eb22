"""Unit conversions."""

import math

import pytest

from repro import units


def test_deg_rad_roundtrip():
    assert units.rad_to_deg(units.deg_to_rad(123.456)) == pytest.approx(123.456)


def test_arcsec_rad_roundtrip():
    assert units.rad_to_arcsec(units.arcsec_to_rad(4.5)) == pytest.approx(4.5)


def test_degree_is_3600_arcsec():
    assert units.arcsec_to_rad(3600.0) == pytest.approx(units.deg_to_rad(1.0))


def test_pi_radians_is_180_degrees():
    assert units.rad_to_deg(math.pi) == pytest.approx(180.0)


def test_normalize_ra_wraps_positive():
    assert units.normalize_ra_deg(370.0) == pytest.approx(10.0)


def test_normalize_ra_wraps_negative():
    assert units.normalize_ra_deg(-10.0) == pytest.approx(350.0)


def test_normalize_ra_identity_in_range():
    assert units.normalize_ra_deg(185.0) == pytest.approx(185.0)
