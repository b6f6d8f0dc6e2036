"""Spec-normalization tests for :mod:`repro.service.registry` variants.

The recovery layer is the one execution variant a job spec may carry;
any other variant field is rejected by ``normalize_spec`` as a bad
request before a cell is built.
"""

import os

import pytest

from repro.errors import ConfigurationError
from repro.service.registry import apply_variants, normalize_spec, variant_raws


def _spec(variants):
    return {"kind": "netstack", "platform": "synthetic", "variants": variants}


class TestVariants:
    def test_recovery_is_accepted_unchanged(self):
        spec = normalize_spec(_spec({"recovery": True}))
        assert spec["variants"] == {"recovery": True}
        assert variant_raws(spec) == {"recovery_raw": "1"}

    def test_missing_variants_default_to_recovery_off(self):
        spec = normalize_spec(_spec(None))
        assert spec["variants"] == {"recovery": False}
        assert variant_raws(spec) == {"recovery_raw": ""}

    def test_des_shards_variant_is_unknown(self):
        with pytest.raises(ConfigurationError, match="unknown variant field"):
            normalize_spec(_spec({"des_shards": 2}))

    def test_apply_variants_restores_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_NET_RECOVERY", raising=False)
        with apply_variants(normalize_spec(_spec({"recovery": True}))):
            assert os.environ["REPRO_NET_RECOVERY"] == "1"
        assert "REPRO_NET_RECOVERY" not in os.environ
